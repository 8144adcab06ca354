package schedule

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
)

func TestSpaceSize(t *testing.T) {
	if got := len(Space()); got != 4*7*7 {
		t.Fatalf("space size = %d, want 196", got)
	}
	if got := len(BasicSpace()); got != 4 {
		t.Fatalf("basic space = %d", got)
	}
	for _, s := range Space() {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid schedule in space: %v", err)
		}
	}
}

func smallTask(t *testing.T, skewed bool) Task {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	b := graph.NewBuilder(2000)
	for i := 0; i < 20000; i++ {
		src := int32(rng.Intn(2000))
		dst := int32(rng.Intn(2000))
		if skewed && rng.Float64() < 0.7 {
			dst = int32(rng.Intn(20))
		}
		b.AddEdge(src, dst)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return Task{Graph: g, Op: ops.AggrSum, Feat: 32, ACols: 32, Device: gpu.V100()}
}

func TestGridSearchSorted(t *testing.T) {
	cands := GridSearch(smallTask(t, false), BasicSpace())
	if len(cands) != 4 {
		t.Fatalf("got %d candidates", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Metrics.Cycles > cands[i].Metrics.Cycles {
			t.Fatal("not sorted by cycles")
		}
	}
}

func TestBest(t *testing.T) {
	c, ok := Best(smallTask(t, false), BasicSpace())
	if !ok {
		t.Fatal("no best found")
	}
	if c.Metrics.Cycles <= 0 {
		t.Fatal("best has no cost")
	}
	if _, ok := Best(smallTask(t, false), []core.Schedule{}); ok {
		t.Fatal("empty space should find nothing")
	}
}

func TestGridSearchSkipsInvalid(t *testing.T) {
	task := smallTask(t, false)
	space := []core.Schedule{{Strategy: core.Strategy(9), Group: 1, Tile: 1}, core.DefaultSchedule}
	cands := GridSearch(task, space)
	if len(cands) != 1 {
		t.Fatalf("invalid schedule should be skipped, got %d candidates", len(cands))
	}
}

func TestPrunedSpaceSubset(t *testing.T) {
	task := smallTask(t, false)
	pruned := PrunedSpace(task)
	if len(pruned) == 0 || len(pruned) > len(Space()) {
		t.Fatalf("pruned size %d out of range", len(pruned))
	}
	// F=32 => 1 chunk => tiling beyond 1 pruned.
	for _, s := range pruned {
		if s.Tile > 1 {
			t.Fatalf("tile %d should be pruned for F=32", s.Tile)
		}
	}
	// Larger features admit more tiling.
	task.Feat, task.ACols = 256, 256
	sawTile := 0
	for _, s := range PrunedSpace(task) {
		if s.Tile > sawTile {
			sawTile = s.Tile
		}
	}
	if sawTile < 8 {
		t.Fatalf("expected tiling up to 8 for F=256, saw max %d", sawTile)
	}
}

// TestPrunedMatchesFullOnSmallTask: pruning must not lose the winner.
func TestPrunedMatchesFullOnSmallTask(t *testing.T) {
	task := smallTask(t, true)
	full, _ := Best(task, Space())
	pruned, _ := Best(task, PrunedSpace(task))
	// Allow a small tolerance: pruned may pick an equal-cost sibling.
	if pruned.Metrics.Cycles > full.Metrics.Cycles*1.05 {
		t.Fatalf("pruned winner %v (%v cycles) much worse than full winner %v (%v cycles)",
			pruned.Schedule, pruned.Metrics.Cycles, full.Schedule, full.Metrics.Cycles)
	}
}

func TestTunerCaches(t *testing.T) {
	task := smallTask(t, false)
	tu := NewTuner()
	c1, ok := tu.Tune(task)
	if !ok {
		t.Fatal("tune failed")
	}
	c2, _ := tu.Tune(task)
	if c1.Schedule != c2.Schedule || c1.Metrics.Cycles != c2.Metrics.Cycles {
		t.Fatal("cache returned different result")
	}
}

func TestSpeedup(t *testing.T) {
	task := smallTask(t, true)
	best, _ := Best(task, PrunedSpace(task))
	s := Speedup(task, core.Schedule{Strategy: core.ThreadVertex, Group: 1, Tile: 1}, best)
	if s < 1 {
		t.Fatalf("tuned schedule should not be slower than a fixed baseline, speedup=%v", s)
	}
}

// TestOptimalStrategyVaries is the Fig. 7 sanity check: across datasets with
// different shapes, the winning basic strategy is not constant.
func TestOptimalStrategyVaries(t *testing.T) {
	winners := map[core.Strategy]bool{}
	for _, abbr := range []string{"CO", "PR", "AR"} {
		g, _, err := datasets.Load(abbr)
		if err != nil {
			t.Fatal(err)
		}
		for _, feat := range []int{8, 64} {
			task := Task{Graph: g, Op: ops.AggrSum, Feat: feat, ACols: feat, Device: gpu.V100()}
			best, ok := Best(task, BasicSpace(), gpu.WithMaxSampledBlocks(64))
			if !ok {
				t.Fatal("no winner")
			}
			winners[best.Schedule.Strategy] = true
		}
	}
	if len(winners) < 2 {
		t.Errorf("expected the optimal basic strategy to vary across datasets/feature sizes, got %v", winners)
	}
}

// TestSkewPrefersEdgeParallel: on a heavily skewed graph, vertex-parallel
// mapping suffers divergence/imbalance, so an edge-mapped strategy should
// win (the paper's Fig. 2/3 motivation).
func TestSkewPrefersEdgeParallel(t *testing.T) {
	best, ok := Best(smallTask(t, true), BasicSpace())
	if !ok {
		t.Fatal("no winner")
	}
	if best.Schedule.Strategy.VertexParallel() {
		t.Errorf("skewed graph picked %v; want an edge-parallel strategy", best.Schedule)
	}
}

func TestTaskWidths(t *testing.T) {
	task := smallTask(t, false)
	task.Op = ops.WeightedAggrSum
	task.Feat = 64
	got := task.Widths(true)
	if got.Feat != 64 || got.ACols != 64 || got.BCols != 1 {
		t.Errorf("Widths = (%d,%d,%d), want (64,64,1)", got.Feat, got.ACols, got.BCols)
	}
	task.Op = ops.AggrSum
	got = task.Widths(false)
	if got.ACols != 64 || got.BCols != 0 {
		t.Errorf("unary Widths = (%d,%d)", got.ACols, got.BCols)
	}
}

func TestEvaluateInvalidSchedule(t *testing.T) {
	task := smallTask(t, false)
	if _, err := Evaluate(task, core.Schedule{Strategy: core.Strategy(9), Group: 1, Tile: 1}); err == nil {
		t.Error("invalid schedule should error")
	}
}

func TestGridSearchNilSpaceUsesFull(t *testing.T) {
	task := smallTask(t, false)
	cands := GridSearch(task, nil, gpu.WithMaxSampledBlocks(8))
	if len(cands) != len(Space()) {
		t.Errorf("nil space should use the full space: %d vs %d", len(cands), len(Space()))
	}
}

// TestGridSearchPanicReachesCaller: a panic inside a fan-out worker is
// re-raised on the goroutine that called GridSearch, where it can be
// recovered, instead of crashing the process from a background goroutine.
func TestGridSearchPanicReachesCaller(t *testing.T) {
	task := smallTask(t, false)
	task.Device = nil // every candidate's kernel model dereferences the device
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.NumCPU())))
	r := func() (r any) {
		defer func() { r = recover() }()
		GridSearch(task, nil)
		return nil
	}()
	if _, ok := r.(runtime.Error); !ok {
		t.Fatalf("recovered %v (%T), want the worker's runtime.Error", r, r)
	}
}
