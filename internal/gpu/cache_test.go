package gpu

import (
	"fmt"
	"math/rand"
	"testing"
)

// refLRU is a naive list-based set-associative LRU cache: each set keeps
// its lines most-recent first.
type refLRU struct {
	sets, ways int
	lists      [][]int64
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{sets: sets, ways: ways, lists: make([][]int64, sets)}
}

func (r *refLRU) access(line int64) bool {
	set := int(uint64(line) % uint64(r.sets))
	l := r.lists[set]
	for i, v := range l {
		if v == line {
			copy(l[1:i+1], l[:i])
			l[0] = line
			return true
		}
	}
	if len(l) < r.ways {
		l = append(l, 0)
	}
	copy(l[1:], l[:len(l)-1])
	l[0] = line
	r.lists[set] = l
	return false
}

// cacheTraces returns seeded random and adversarial line traces for a cache
// with the given geometry.
func cacheTraces(sets, ways int, rng *rand.Rand) map[string][]int64 {
	lines := sets * ways
	const n = 4000
	traces := map[string][]int64{}
	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = rng.Int63n(int64(2*lines + 3))
	}
	traces["uniform"] = uniform
	// Thrashing: one more line than a set holds, cycled through that set.
	thrash := make([]int64, n)
	for i := range thrash {
		thrash[i] = int64(i%(ways+1)) * int64(sets)
	}
	traces["thrash"] = thrash
	// One hot line interleaved with a random stream.
	hot := make([]int64, n)
	for i := range hot {
		hot[i] = 7
		if i%2 == 1 {
			hot[i] = rng.Int63n(int64(4*lines + 5))
		}
	}
	traces["hot"] = hot
	// Conflict misses: random lines that all map to set 1 (set 0 if there
	// is only one), drawn from a pool slightly larger than the ways.
	conflict := make([]int64, n)
	for i := range conflict {
		conflict[i] = int64(1%sets) + rng.Int63n(int64(ways+2))*int64(sets)
	}
	traces["conflict"] = conflict
	// A working set that exactly fills the cache, cycled: all hits after
	// the first pass.
	fit := make([]int64, n)
	for i := range fit {
		fit[i] = int64(i % lines)
	}
	traces["fit"] = fit
	// Large, sparse line addresses (real traces are byte offsets / 128).
	sparse := make([]int64, n)
	for i := range sparse {
		sparse[i] = rng.Int63n(1<<40) | int64(rng.Intn(3))<<45
	}
	traces["sparse"] = sparse
	return traces
}

// TestCacheMatchesReferenceLRU checks Cache.Access against refLRU access by
// access, and the final Stats, over geometries that include non-power-of-two
// set counts, direct-mapped caches and more ways than lines (the tiny L2
// that sample scaling produces).
func TestCacheMatchesReferenceLRU(t *testing.T) {
	cases := []struct {
		capacity, ways     int
		wantSets, wantWays int
	}{
		{4 * 128, 2, 2, 2},
		{6 * 128, 2, 3, 2},
		{7 * 128, 1, 7, 1},
		{3 * 128, 16, 1, 3},
		{10, 4, 1, 1},
		{100 * 128, 16, 6, 16},
		{1000 * 128, 4, 250, 4},
		{128 << 10, 4, 256, 4},
	}
	rng := rand.New(rand.NewSource(12))
	for _, tc := range cases {
		for name, trace := range cacheTraces(tc.wantSets, tc.wantWays, rng) {
			t.Run(fmt.Sprintf("%dB_%dway/%s", tc.capacity, tc.ways, name), func(t *testing.T) {
				c := NewCache(tc.capacity, 128, tc.ways)
				if c.sets != tc.wantSets || c.ways != tc.wantWays {
					t.Fatalf("geometry = %d sets x %d ways, want %d x %d", c.sets, c.ways, tc.wantSets, tc.wantWays)
				}
				ref := newRefLRU(tc.wantSets, tc.wantWays)
				var hits int64
				for i, line := range trace {
					got, want := c.Access(line), ref.access(line)
					if got != want {
						t.Fatalf("access %d (line %d): hit=%v, reference LRU says %v", i, line, got, want)
					}
					if want {
						hits++
					}
				}
				if a, h := c.Stats(); a != int64(len(trace)) || h != hits {
					t.Fatalf("Stats() = (%d, %d), want (%d, %d)", a, h, len(trace), hits)
				}
			})
		}
	}
}

// TestSimulatorReuseMatchesFresh: a Simulator reused across kernels of
// different sizes returns exactly what fresh Simulate calls return, so no
// state leaks from one simulation's buffers into the next.
func TestSimulatorReuseMatchesFresh(t *testing.T) {
	d := V100()
	w := BlockWork{Insts: 300, Transactions: 40, ActiveWarps: 8}
	kernels := []fakeKernel{
		{blocks: 3000, warps: 8, work: w, lineSpread: 64},
		{blocks: 50, warps: 8, work: w, lineSpread: 8},
		{blocks: 2000, warps: 8, work: w, lineSpread: 32, linesShared: true},
		{blocks: 400, warps: 8, work: w, lineSpread: 16, lineBase: 1<<31 - 400*16},
	}
	var sim Simulator
	for i, k := range kernels {
		if got, want := sim.Simulate(d, k), Simulate(d, k); got != want {
			t.Errorf("kernel %d: reused Simulator gave %+v, fresh Simulate %+v", i, got, want)
		}
	}
}

// TestSimulateRejectsWideLines: a line address outside [0, 2^31) cannot be
// recorded in a trace word and must panic, not alias a lower line.
func TestSimulateRejectsWideLines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Simulate accepted a line at 2^31")
		}
	}()
	Simulate(V100(), fakeKernel{blocks: 4, warps: 8, lineSpread: 2, lineBase: 1<<31 - 1})
}
