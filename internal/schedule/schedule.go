// Package schedule enumerates uGrapher's parallelization-strategy space and
// provides the grid-search tuner the paper validates its predictor against
// (§5.4, Fig. 12). The full space — 4 basic strategies x grouping x tiling
// parameters — is explored by simulating each candidate kernel and ranking
// by predicted cycles.
//
// The search fans its candidates out over runtime.GOMAXPROCS(0) goroutines
// for the duration of one GridSearch call. Results are collected by
// candidate index, so the ranking — order, tie-breaks and every Metrics
// field — is bit-identical to a serial search at any worker count
// (testdata/gridsearch_golden.txt pins it).
package schedule

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/telemetry"
)

// GroupValues and TileValues are the power-of-two knob settings that appear
// throughout the paper's Table 9 and Fig. 18.
var (
	GroupValues = []int{1, 2, 4, 8, 16, 32, 64}
	TileValues  = []int{1, 2, 4, 8, 16, 32, 64}
)

// Space returns the full candidate schedule list: 4 strategies x 7 grouping
// x 7 tiling values = 196 schedules.
func Space() []core.Schedule {
	out := make([]core.Schedule, 0, len(core.Strategies)*len(GroupValues)*len(TileValues))
	for _, s := range core.Strategies {
		for _, g := range GroupValues {
			for _, t := range TileValues {
				out = append(out, core.Schedule{Strategy: s, Group: g, Tile: t})
			}
		}
	}
	return out
}

// BasicSpace returns only the four basic strategies (Group=1, Tile=1), the
// configuration Fig. 7 and Fig. 17 contrast against the tuned optimum.
func BasicSpace() []core.Schedule {
	out := make([]core.Schedule, len(core.Strategies))
	for i, s := range core.Strategies {
		out[i] = core.Schedule{Strategy: s, Group: 1, Tile: 1}
	}
	return out
}

// Task identifies one tuning problem: a graph operator on a dataset with a
// feature width, on a device.
type Task struct {
	Graph *graph.Graph
	Op    ops.OpInfo
	// Feat is the output feature width; ACols/BCols the operand widths
	// (1 = broadcast scalar, 0 = absent).
	Feat, ACols, BCols int
	Device             *gpu.Device
}

// Widths fills ACols/BCols from the operator's natural shape.
func (t Task) Widths(widthOneB bool) Task {
	t.Feat, t.ACols, t.BCols = core.OperandWidths(t.Op, t.Feat, widthOneB)
	return t
}

// Candidate is one evaluated schedule.
type Candidate struct {
	Schedule core.Schedule
	Metrics  gpu.Metrics
}

// Evaluate simulates a single schedule for the task.
func Evaluate(t Task, s core.Schedule, opts ...gpu.Option) (Candidate, error) {
	return evaluate(t, s, new(gpu.Simulator), opts)
}

// evaluate is core.Estimate on sim's reusable trace buffers: compile the
// schedule, build its kernel model, simulate it.
func evaluate(t Task, s core.Schedule, sim *gpu.Simulator, opts []gpu.Option) (Candidate, error) {
	p, err := core.Compile(t.Op, s)
	if err != nil {
		return Candidate{}, err
	}
	k := p.Kernel(t.Graph, t.Feat, t.ACols, t.BCols, t.Device)
	return Candidate{Schedule: s, Metrics: sim.Simulate(t.Device, k, opts...)}, nil
}

// GridSearch evaluates every schedule in space (default: Space()) and
// returns the candidates sorted by ascending cycles. Schedules that fail to
// compile for the operator are skipped.
//
// Candidates are evaluated on runtime.GOMAXPROCS(0) goroutines that claim
// indices from a shared cursor, each reusing one gpu.Simulator's trace
// buffers for all its candidates; each result lands in the slot of its index,
// so the list handed to the sort is in space order whatever the worker
// count, and the ranking and its tie-breaks are bit-identical to a serial
// search. A panic in any evaluation stops the other workers from
// claiming more work and is re-raised on the calling goroutine once they
// have all returned.
func GridSearch(t Task, space []core.Schedule, opts ...gpu.Option) []Candidate {
	if space == nil {
		space = Space()
	}
	evals := make([]Candidate, len(space))
	valid := make([]bool, len(space))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(space) {
		workers = len(space)
	}
	var (
		cursor    atomic.Int64
		stop      atomic.Bool
		panicOnce sync.Once
		panicVal  any
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
					stop.Store(true)
				}
			}()
			var sim gpu.Simulator
			for !stop.Load() {
				i := int(cursor.Add(1) - 1)
				if i >= len(space) {
					return
				}
				c, err := evaluate(t, space[i], &sim, opts)
				evals[i], valid[i] = c, err == nil
			}
		}()
	}
	wg.Wait()
	if stop.Load() {
		// Invariant: only a bug in the kernel model or the simulator panics
		// here; re-raise it where a serial search would have raised it.
		panic(panicVal)
	}
	out := evals[:0]
	for i, c := range evals {
		if valid[i] {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metrics.Cycles < out[j].Metrics.Cycles })
	return out
}

// Best returns the grid-search winner, or an error if nothing evaluated.
func Best(t Task, space []core.Schedule, opts ...gpu.Option) (Candidate, bool) {
	cands := GridSearch(t, space, opts...)
	if len(cands) == 0 {
		return Candidate{}, false
	}
	return cands[0], true
}

// PrunedSpace trims knob values that cannot help the task: grouping beyond
// items/32 (launch would collapse below one wave) and tiling beyond the
// feature chunk count (all extra units idle). This keeps grid search
// practical on big graphs without excluding any winner the full space would
// find — over-tiled/over-grouped schedules are strictly dominated.
func PrunedSpace(t Task) []core.Schedule {
	chunks := (t.Feat + 31) / 32
	if chunks < 1 {
		chunks = 1
	}
	maxTile := 1
	for _, v := range TileValues {
		if v <= chunks {
			maxTile = v
		}
	}
	var out []core.Schedule
	for _, s := range core.Strategies {
		items := t.Graph.NumVertices()
		if !s.VertexParallel() {
			items = t.Graph.NumEdges()
		}
		// Stop growing the group once the launch collapses below one block
		// per SM; coarser groupings are strictly dominated.
		for _, g := range GroupValues {
			units := (items + g - 1) / g
			if g > 1 && units < t.Device.NumSMs {
				break
			}
			for _, ti := range TileValues {
				if ti > maxTile {
					break
				}
				out = append(out, core.Schedule{Strategy: s, Group: g, Tile: ti})
			}
		}
	}
	return out
}

// cacheKey memoises tuning results for repeated (graph, op, feat, device)
// lookups within a process — the paper's point that tuning happens once
// before inference.
type cacheKey struct {
	g      *graph.Graph
	opName string
	edgeOp ops.EdgeOp
	gather ops.GatherOp
	feat   int
	aCols  int
	bCols  int
	dev    string
}

// MetricSearches counts the grid searches Tuners run (their cache misses).
const MetricSearches = "ugrapher_schedule_searches_total"

// Tuner performs cached grid search.
type Tuner struct {
	mu    sync.Mutex
	cache map[cacheKey]Candidate
	// Opts are forwarded to every simulation.
	Opts []gpu.Option
}

// NewTuner returns an empty cached tuner.
func NewTuner(opts ...gpu.Option) *Tuner {
	return &Tuner{cache: make(map[cacheKey]Candidate), Opts: opts}
}

// Tune returns the best schedule for the task, using the pruned space, with
// memoisation.
func (tu *Tuner) Tune(t Task) (Candidate, bool) {
	key := cacheKey{
		g: t.Graph, opName: t.Op.Name, edgeOp: t.Op.EdgeOp, gather: t.Op.GatherOp,
		feat: t.Feat, aCols: t.ACols, bCols: t.BCols, dev: t.Device.Name,
	}
	tu.mu.Lock()
	if c, ok := tu.cache[key]; ok {
		tu.mu.Unlock()
		return c, true
	}
	tu.mu.Unlock()
	telemetry.Default().Counter(MetricSearches).Inc()
	best, ok := Best(t, PrunedSpace(t), tu.Opts...)
	if !ok {
		return Candidate{}, false
	}
	tu.mu.Lock()
	tu.cache[key] = best
	tu.mu.Unlock()
	return best, true
}

// Speedup returns how much faster best is than the given baseline schedule.
func Speedup(t Task, baseline core.Schedule, best Candidate, opts ...gpu.Option) float64 {
	b, err := Evaluate(t, baseline, opts...)
	if err != nil {
		return math.NaN()
	}
	return b.Metrics.Cycles / best.Metrics.Cycles
}
