package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// fwdWorkload is a closed loop with one caller: each pass is a GCN forward
// then a GAT forward through compiled programs, the next pass starting when
// the previous one returns.
type fwdWorkload struct {
	dataset       string
	feat, classes int
	// passesPerSecond converts --seconds into the fixed pass count.
	passesPerSecond float64
	// setups is how many times a timed run repeats the set-up (dataset
	// load and both compiles) for the median setup_s.
	setups int
}

var (
	// fwdSkewed runs on the skewed AR graph (1.6M edges, in-degree std 63)
	// at its own width: graph kernels dominate, and its compile carries the
	// heaviest schedule search.
	fwdSkewed = fwdWorkload{dataset: "AR", feat: 100, classes: 12, passesPerSecond: 1.25, setups: 2}
	// fwdDense runs on PU at feat 500: GEMM and elementwise steps dominate
	// and graph kernels do little.
	fwdDense = fwdWorkload{dataset: "PU", feat: 500, classes: 3, passesPerSecond: 2, setups: 3}
)

var fwdModels = []string{"GCN", "GAT"}

func (w fwdWorkload) passes(seconds int) int {
	return max(1, int(math.Round(w.passesPerSecond*float64(seconds))))
}

// setup is what a user pays before the first forward: load the graph and
// compile both models with the engine cmd/ugrapher -model uses.
func (w fwdWorkload) setup() (*graph.Graph, []*program.CompiledProgram, error) {
	g, _, err := datasets.Load(w.dataset)
	if err != nil {
		return nil, nil, err
	}
	cps := make([]*program.CompiledProgram, len(fwdModels))
	for i, name := range fwdModels {
		m, err := models.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		if cps[i], err = models.CompileModel(m, g, w.feat, w.classes, models.NewTunedEngine(gpu.V100())); err != nil {
			return nil, nil, fmt.Errorf("compile %s: %w", name, err)
		}
	}
	return g, cps, nil
}

// tracedSetup is setup with every phase timed into c.
func (w fwdWorkload) tracedSetup(c *compileSplit) (*graph.Graph, []*program.CompiledProgram, error) {
	g, err := tracedLoad(c, w.dataset)
	if err != nil {
		return nil, nil, err
	}
	cps := make([]*program.CompiledProgram, len(fwdModels))
	for i, name := range fwdModels {
		m, err := models.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		cps[i], err = tracedCompile(c, m, g, w.feat, w.classes, models.NewTunedEngine(gpu.V100()), core.DefaultBackend())
		if err != nil {
			return nil, nil, fmt.Errorf("compile %s: %w", name, err)
		}
	}
	return g, cps, nil
}

// passResult is one pass: its wall time, the per-model forward times, and
// how far each output strayed from the first pass (the slack the oracle
// check then accounts for).
type passResult struct {
	wall  time.Duration
	model []time.Duration
	slack []float64
	err   error
}

// pass runs one timed GCN+GAT pass; comparing the outputs with the first
// pass happens after the clock stops.
func pass(cps []*program.CompiledProgram, x *tensor.Dense, first []*tensor.Dense) passResult {
	res := passResult{model: make([]time.Duration, len(cps)), slack: make([]float64, len(cps))}
	outs := make([]*tensor.Dense, len(cps))
	ctx := context.Background()
	start := time.Now()
	last := start
	for i, cp := range cps {
		out, err := cp.RunCtx(ctx, x)
		now := time.Now()
		res.model[i] = now.Sub(last)
		last = now
		if err != nil {
			res.err = fmt.Errorf("%s: %w", fwdModels[i], err)
			break
		}
		outs[i] = out
	}
	res.wall = last.Sub(start)
	for i, out := range outs {
		if out == nil {
			res.slack[i] = math.Inf(1)
			continue
		}
		res.slack[i] = maxAbsDiff(out.Data, first[i].Data)
	}
	return res
}

func (w fwdWorkload) run(cfg config) (*report, error) {
	r := newReport()
	var (
		g   *graph.Graph
		cps []*program.CompiledProgram
		err error
		x   *tensor.Dense
		// first holds the first warm-up pass's outputs: the reference every
		// later pass is compared with, itself checked against the oracle.
		first []*tensor.Dense
		// checked is every pass compared with first, timed or not.
		checked []passResult
	)
	// begin readies freshly set-up programs with an untimed warm-up pass,
	// which fills lazily built state.
	begin := func() error {
		if x == nil {
			x = tensor.NewDense(g.NumVertices(), w.feat)
			x.FillRandom(rand.New(rand.NewSource(cfg.seed)), 1)
		}
		if first != nil {
			checked = append(checked, pass(cps, x, first))
			return nil
		}
		first = make([]*tensor.Dense, len(cps))
		for i, cp := range cps {
			out, err := cp.RunCtx(context.Background(), x)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", fwdModels[i], err)
			}
			first[i] = out.Clone()
		}
		return nil
	}

	n := w.passes(cfg.seconds)
	if cfg.trace {
		var c compileSplit
		if g, cps, err = w.tracedSetup(&c); err != nil {
			return nil, err
		}
		c.set(r)
		if err := begin(); err != nil {
			return nil, err
		}
		if err := programShape(r, cps, x); err != nil {
			return nil, err
		}
		checked = append(checked, w.tracedLoop(r, cps, x, first, n, g.NumVertices(), g.NumEdges())...)
		setAbsentServeLayers(r)
	} else {
		// The timed passes are split across the set-ups, so one run samples
		// the host over its whole length instead of one stretch of it. Peak
		// RSS is read after the first set-up's passes: one set-up and its
		// run, as a user pays them.
		times := make([]float64, 0, w.setups)
		timed := make([]passResult, 0, n)
		rss := 0.0
		for i := 0; i < w.setups; i++ {
			g, cps = nil, nil
			runtime.GC()
			debug.FreeOSMemory() // release the previous set-up's programs before the next one
			start := time.Now()
			if g, cps, err = w.setup(); err != nil {
				return nil, err
			}
			times = append(times, time.Since(start).Seconds())
			if err := begin(); err != nil {
				return nil, err
			}
			for j := i * n / w.setups; j < (i+1)*n/w.setups; j++ {
				timed = append(timed, pass(cps, x, first))
			}
			if i == 0 {
				if rss, err = peakRSSMiB(); err != nil {
					return nil, err
				}
			}
		}
		r.set("setup_s", "s", median(times))
		r.set("setup_s.samples", "count", float64(len(times)))
		r.set("peak_rss_mib", "MiB", rss)
		w.setLatency(r, timed)
		checked = append(checked, timed...)
	}

	// The oracle runs after everything timed and after peak RSS is read.
	want := make([]*tensor.Dense, len(cps))
	for i, name := range fwdModels {
		m, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		if want[i], err = oracle(m, g, x, w.classes); err != nil {
			return nil, fmt.Errorf("oracle %s: %w", name, err)
		}
	}
	judge := func(err error, slack []float64) {
		ok := err == nil
		for i := range want {
			if ok && !closeWithSlack(first[i].Data, want[i].Data, slack[i]) {
				ok = false
				fmt.Fprintf(os.Stderr, "perfbench: %s output differs from the reference oracle (max |diff| %.3g + pass drift %.3g)\n",
					fwdModels[i], maxAbsDiff(first[i].Data, want[i].Data), slack[i])
			}
		}
		r.op(err, ok)
	}
	judge(nil, make([]float64, len(cps)))
	for _, res := range checked {
		judge(res.err, res.slack)
	}
	return r, nil
}

// setLatency reports the end-to-end latency metrics of a timed loop.
func (w fwdWorkload) setLatency(r *report, results []passResult) {
	wall := make([]float64, 0, len(results))
	perModel := make([][]float64, len(fwdModels))
	var total time.Duration
	for _, res := range results {
		if res.err != nil {
			continue
		}
		wall = append(wall, ms(res.wall))
		total += res.wall
		for i, d := range res.model {
			perModel[i] = append(perModel[i], ms(d))
		}
	}
	p50 := median(wall)
	tl, pct, ok := tail(wall)
	if !ok {
		tl = math.NaN()
	}
	r.set("lat_ms.p50", "ms", p50)
	r.set("lat_ms.tail", "ms", tl)
	r.set("rate_per_s", "1/s", float64(len(wall))/total.Seconds())
	r.set("pass_ms.p50", "ms", p50)
	r.set("pass_ms.tail", "ms", tl)
	r.set("pass_ms.tail_pct", "%", pct)
	r.set("pass_ms.samples", "count", float64(len(wall)))
	for i, name := range fwdModels {
		r.set(strings.ToLower(name)+"_ms.p50", "ms", median(perModel[i]))
	}
}

// tracedLoop runs n passes alternating untraced and traced ones (ABBA
// order, so drift cancels), attributes the traced passes' time to step
// kinds from their spans, and reports tracing overhead as traced ÷
// untraced median pass time with the quartile spread of the pairwise
// ratios.
func (w fwdWorkload) tracedLoop(r *report, cps []*program.CompiledProgram, x *tensor.Dense, first []*tensor.Dense, n, numV, numE int) []passResult {
	telemetry.Reset()
	defer telemetry.Reset()
	var plain, traced, ratios []float64
	results := make([]passResult, 0, n)
	for j := 0; j < max(1, n/2); j++ {
		var pr [2]passResult // untraced, traced
		for k := 0; k < 2; k++ {
			on := (k == 0) == (j%2 == 1) // pairs alternate which side runs first
			telemetry.SetEnabled(on)
			res := pass(cps, x, first)
			telemetry.SetEnabled(false)
			results = append(results, res)
			if on {
				pr[1] = res
			} else {
				pr[0] = res
			}
		}
		if pr[0].err == nil && pr[1].err == nil {
			plain = append(plain, ms(pr[0].wall))
			traced = append(traced, ms(pr[1].wall))
			ratios = append(ratios, float64(pr[1].wall)/float64(pr[0].wall))
		}
	}
	var split stepSplit
	split.addEvents(telemetry.Default().Events(), gemmFlops(cps, numV, numE))
	split.set(r, len(traced), numE)
	overhead(r, median(traced)/median(plain), ratios)
	r.set("pass_ms.p50.untraced", "ms", median(plain))
	r.set("pass_ms.p50.traced", "ms", median(traced))
	return results
}

// setAbsentServeLayers zeroes the serving-layer metrics on workloads that
// do not go through internal/serve.
func setAbsentServeLayers(r *report) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "serve.") || strings.HasPrefix(d.name, "gen.") {
			r.set(d.name, d.unit, 0)
		}
	}
}
