package gpu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheBasic(t *testing.T) {
	c := NewCache(4*128, 128, 2) // 4 lines, 2-way: 2 sets
	if c.Access(0) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0) {
		t.Fatal("repeat access should hit")
	}
	acc, hits := c.Stats()
	if acc != 2 || hits != 1 {
		t.Fatalf("stats = (%d,%d)", acc, hits)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 sets x 2 ways. Lines 0,2,4 map to set 0.
	c := NewCache(4*128, 128, 2)
	c.Access(0)
	c.Access(2)
	c.Access(0) // 0 is now MRU
	c.Access(4) // evicts LRU (2)
	if !c.Access(0) {
		t.Fatal("0 should still be cached")
	}
	if c.Access(2) {
		t.Fatal("2 should have been evicted")
	}
}

func TestCacheTinyCapacity(t *testing.T) {
	c := NewCache(10, 128, 4) // less than one line: degrades to 1 line
	c.Access(1)
	if !c.Access(1) {
		t.Fatal("single-line cache should hold one line")
	}
	if c.Access(2) {
		t.Fatal("different line must miss in single-line cache")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(1024, 128, 2)
	c.Access(1)
	c.Reset()
	if acc, _ := c.Stats(); acc != 0 {
		t.Fatal("reset should clear counters")
	}
	if c.Access(1) {
		t.Fatal("reset should clear contents")
	}
	if c.HitRate() != 0 {
		t.Fatal("hit rate of empty cache should be 0")
	}
}

// Property: hit rate is always within [0,1] and hits <= accesses.
func TestQuickCacheInvariant(t *testing.T) {
	f := func(lines []uint8) bool {
		c := NewCache(2048, 128, 4)
		for _, l := range lines {
			c.Access(int64(l))
		}
		acc, hits := c.Stats()
		return hits <= acc && c.HitRate() >= 0 && c.HitRate() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheWorkingSetTransition(t *testing.T) {
	// Working set smaller than capacity: near-perfect reuse hit rate.
	// Working set 4x capacity with cyclic access: near-zero hit rate (LRU
	// pathological pattern).
	c := NewCache(64*128, 128, 4)
	for pass := 0; pass < 10; pass++ {
		for l := int64(0); l < 32; l++ {
			c.Access(l)
		}
	}
	if c.HitRate() < 0.85 {
		t.Errorf("small working set hit rate = %v, want high", c.HitRate())
	}
	c2 := NewCache(64*128, 128, 4)
	for pass := 0; pass < 10; pass++ {
		for l := int64(0); l < 256; l++ {
			c2.Access(l)
		}
	}
	if c2.HitRate() > 0.2 {
		t.Errorf("oversized cyclic working set hit rate = %v, want low", c2.HitRate())
	}
}

// fakeKernel is a uniform synthetic kernel for simulator tests.
type fakeKernel struct {
	blocks      int
	warps       int
	work        BlockWork
	lineSpread  int64 // lines per block trace
	linesShared bool  // all blocks touch the same lines
	lineBase    int64 // first line address
}

func (f fakeKernel) NumBlocks() int            { return f.blocks }
func (f fakeKernel) WarpsPerBlock() int        { return f.warps }
func (f fakeKernel) BlockWork(b int) BlockWork { return f.work }
func (f fakeKernel) Footprint() int64 {
	if f.linesShared {
		return f.lineSpread * 128
	}
	return int64(f.blocks) * f.lineSpread * 128
}
func (f fakeKernel) TraceBlock(b int, visit func(WarpAccess)) {
	base := f.lineBase
	if !f.linesShared {
		base += int64(b) * f.lineSpread
	}
	for i := int64(0); i < f.lineSpread; i++ {
		visit(WarpAccess{Lines: []int64{base + i}})
	}
}

func TestSimulateEmptyKernel(t *testing.T) {
	d := V100()
	m := Simulate(d, fakeKernel{blocks: 0, warps: 8})
	if m.Cycles != d.LaunchOverheadCycles {
		t.Fatalf("empty kernel cycles = %v", m.Cycles)
	}
}

func TestSimulateMoreBlocksTakeLonger(t *testing.T) {
	d := V100()
	w := BlockWork{Insts: 1000, Transactions: 100, ActiveWarps: 8}
	small := Simulate(d, fakeKernel{blocks: 100, warps: 8, work: w, lineSpread: 64})
	large := Simulate(d, fakeKernel{blocks: 10000, warps: 8, work: w, lineSpread: 64})
	if large.Cycles <= small.Cycles {
		t.Fatalf("100x work should cost more: %v vs %v", small.Cycles, large.Cycles)
	}
}

func TestSimulateSharedLinesHitInCache(t *testing.T) {
	d := V100()
	w := BlockWork{Insts: 100, Transactions: 32, ActiveWarps: 8}
	shared := Simulate(d, fakeKernel{blocks: 2000, warps: 8, work: w, lineSpread: 32, linesShared: true})
	scattered := Simulate(d, fakeKernel{blocks: 2000, warps: 8, work: w, lineSpread: 32})
	if shared.L2HitRate <= scattered.L2HitRate {
		t.Fatalf("shared lines should hit more: %v vs %v", shared.L2HitRate, scattered.L2HitRate)
	}
	if shared.Cycles > scattered.Cycles {
		t.Fatalf("better locality should not be slower: %v vs %v", shared.Cycles, scattered.Cycles)
	}
}

func TestSimulateMetricsRanges(t *testing.T) {
	d := A100()
	w := BlockWork{Insts: 500, Transactions: 50, AtomicTransactions: 10, SerialRounds: 5, ActiveWarps: 8}
	m := Simulate(d, fakeKernel{blocks: 5000, warps: 8, work: w, lineSpread: 40})
	if m.Occupancy < 0 || m.Occupancy > 1 {
		t.Errorf("occupancy out of range: %v", m.Occupancy)
	}
	if m.SMEfficiency < 0 || m.SMEfficiency > 1 {
		t.Errorf("sm efficiency out of range: %v", m.SMEfficiency)
	}
	if m.L1HitRate < 0 || m.L1HitRate > 1 || m.L2HitRate < 0 || m.L2HitRate > 1 {
		t.Errorf("hit rates out of range: %v %v", m.L1HitRate, m.L2HitRate)
	}
	if m.Cycles <= 0 {
		t.Errorf("cycles = %v", m.Cycles)
	}
	if m.Insts != 500*5000 {
		t.Errorf("insts = %v", m.Insts)
	}
}

// imbalancedKernel gives all work to a handful of blocks.
type imbalancedKernel struct {
	fakeKernel
	heavyEvery int
	heavyScale float64
}

func (k imbalancedKernel) BlockWork(b int) BlockWork {
	w := k.work
	if b%k.heavyEvery == 0 {
		w.Insts *= k.heavyScale
		w.Transactions *= k.heavyScale
	}
	return w
}

func TestSimulateImbalanceLowersEfficiency(t *testing.T) {
	d := V100()
	w := BlockWork{Insts: 200, Transactions: 20, ActiveWarps: 8}
	balanced := Simulate(d, fakeKernel{blocks: 800, warps: 8, work: w, lineSpread: 16})
	imbalanced := Simulate(d, imbalancedKernel{
		fakeKernel: fakeKernel{blocks: 800, warps: 8, work: w, lineSpread: 16},
		heavyEvery: 400, heavyScale: 200,
	})
	if imbalanced.SMEfficiency >= balanced.SMEfficiency {
		t.Fatalf("imbalance should lower SM efficiency: %v vs %v",
			imbalanced.SMEfficiency, balanced.SMEfficiency)
	}
	if imbalanced.Occupancy >= balanced.Occupancy {
		t.Fatalf("imbalance should lower achieved occupancy: %v vs %v",
			imbalanced.Occupancy, balanced.Occupancy)
	}
}

func TestSimulateFewBlocksLowOccupancy(t *testing.T) {
	d := V100()
	w := BlockWork{Insts: 1000, Transactions: 100, ActiveWarps: 8}
	few := Simulate(d, fakeKernel{blocks: 10, warps: 8, work: w, lineSpread: 32})
	many := Simulate(d, fakeKernel{blocks: 100000, warps: 8, work: w, lineSpread: 32})
	if few.Occupancy >= many.Occupancy {
		t.Fatalf("tiny launch should achieve lower occupancy: %v vs %v",
			few.Occupancy, many.Occupancy)
	}
}

func TestSimulateAtomicsCost(t *testing.T) {
	d := V100()
	base := BlockWork{Insts: 100, Transactions: 100, ActiveWarps: 8}
	atom := base
	atom.AtomicTransactions = 100
	atom.SerialRounds = 300
	noAtomics := Simulate(d, fakeKernel{blocks: 3000, warps: 8, work: base, lineSpread: 32})
	withAtomics := Simulate(d, fakeKernel{blocks: 3000, warps: 8, work: atom, lineSpread: 32})
	if withAtomics.Cycles <= noAtomics.Cycles {
		t.Fatalf("atomics should cost cycles: %v vs %v", noAtomics.Cycles, withAtomics.Cycles)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	d := V100()
	w := BlockWork{Insts: 300, Transactions: 30, ActiveWarps: 8}
	k := fakeKernel{blocks: 1234, warps: 8, work: w, lineSpread: 20}
	a := Simulate(d, k)
	b := Simulate(d, k)
	if a != b {
		t.Fatal("simulation must be deterministic")
	}
}

func TestWithMaxSampledBlocks(t *testing.T) {
	d := V100()
	w := BlockWork{Insts: 300, Transactions: 30, ActiveWarps: 8}
	k := fakeKernel{blocks: 5000, warps: 8, work: w, lineSpread: 20}
	m := Simulate(d, k, WithMaxSampledBlocks(16))
	if m.SampledBlocks != 16 {
		t.Fatalf("SampledBlocks = %d, want 16", m.SampledBlocks)
	}
	m2 := Simulate(d, k, WithMaxSampledBlocks(0)) // ignored
	if m2.SampledBlocks == 0 {
		t.Fatal("zero sample option should be ignored")
	}
}

func TestDeviceSpecs(t *testing.T) {
	v, a := V100(), A100()
	if v.NumSMs != 80 || a.NumSMs != 108 {
		t.Fatal("SM counts must match Table 8")
	}
	if v.WarpsPerBlock() != 8 {
		t.Fatalf("warps per block = %d", v.WarpsPerBlock())
	}
	if a.TensorCoreSpeedup <= v.TensorCoreSpeedup {
		t.Fatal("A100 must have tensor-core GEMM advantage")
	}
	if a.L2Bytes <= v.L2Bytes {
		t.Fatal("A100 L2 should be larger")
	}
}

func TestGEMMCycles(t *testing.T) {
	v, a := V100(), A100()
	big := GEMMCycles(v, 100000, 256, 256)
	small := GEMMCycles(v, 1000, 256, 256)
	if big <= small {
		t.Fatal("bigger GEMM should cost more")
	}
	if GEMMCycles(a, 100000, 256, 256) >= big {
		t.Fatal("A100 GEMM should be faster than V100")
	}
}

func TestElementwiseCycles(t *testing.T) {
	v := V100()
	if ElementwiseCycles(v, 1000000, 2) <= ElementwiseCycles(v, 1000, 2) {
		t.Fatal("more elements should cost more")
	}
}

func TestSimulateRandomisedInvariants(t *testing.T) {
	d := V100()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		w := BlockWork{
			Insts:        float64(rng.Intn(10000)),
			Transactions: float64(rng.Intn(1000)),
			ActiveWarps:  1 + rng.Intn(8),
		}
		k := fakeKernel{blocks: 1 + rng.Intn(3000), warps: 8, work: w, lineSpread: 1 + int64(rng.Intn(64))}
		m := Simulate(d, k)
		if m.Cycles < d.LaunchOverheadCycles {
			t.Fatalf("trial %d: cycles below launch overhead", trial)
		}
		if m.Occupancy < 0 || m.Occupancy > 1 || m.SMEfficiency < 0 || m.SMEfficiency > 1 {
			t.Fatalf("trial %d: metric out of range: %+v", trial, m)
		}
	}
}

func TestBoundByAttribution(t *testing.T) {
	d := V100()
	// Empty kernel: launch-bound.
	if m := Simulate(d, fakeKernel{blocks: 1, warps: 8, work: BlockWork{Insts: 1, ActiveWarps: 1}, lineSpread: 1}); m.BoundBy != "launch" {
		t.Errorf("tiny kernel bound = %q, want launch", m.BoundBy)
	}
	// Compute-heavy kernel: sm-makespan.
	heavy := BlockWork{Insts: 1e6, Transactions: 10, ActiveWarps: 8}
	if m := Simulate(d, fakeKernel{blocks: 500, warps: 8, work: heavy, lineSpread: 4}); m.BoundBy != "sm-makespan" {
		t.Errorf("compute kernel bound = %q, want sm-makespan", m.BoundBy)
	}
	// Atomic-storm kernel.
	atomic := BlockWork{Insts: 10, Transactions: 5000, AtomicTransactions: 5000, ActiveWarps: 8}
	m := Simulate(d, fakeKernel{blocks: 5000, warps: 8, work: atomic, lineSpread: 2, linesShared: true})
	if m.BoundBy != "atomic-bw" {
		t.Errorf("atomic kernel bound = %q, want atomic-bw", m.BoundBy)
	}
}
