package main

import (
	"context"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/program"
	"repro/internal/schedule"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Layer attribution from outside the program: compile phases are timed
// around public calls and through the wrappers below; run steps come from
// the step and run spans the program already emits while telemetry is on.

// timedScheduler is a program.Scheduler that forwards to the engine and
// times each schedule decision (the tuner's grid search, memoised per task).
type timedScheduler struct {
	eng   models.Engine
	busy  time.Duration
	calls int
}

func (s *timedScheduler) Device() *gpu.Device { return s.eng.Device() }
func (s *timedScheduler) Fused() bool         { return s.eng.Fused() }

func (s *timedScheduler) ScheduleFor(t schedule.Task) core.Schedule {
	start := time.Now()
	sched := s.eng.ScheduleFor(t)
	s.busy += time.Since(start)
	s.calls++
	return sched
}

// timedBackend is a core.ExecBackend that forwards to the backend the
// engine would use and times each kernel lowering.
type timedBackend struct {
	core.ExecBackend
	busy time.Duration
}

func (b *timedBackend) Lower(p *core.Plan, g *graph.Graph, o core.Operands) (core.CompiledKernel, error) {
	start := time.Now()
	k, err := b.ExecBackend.Lower(p, g, o)
	b.busy += time.Since(start)
	return k, err
}

// compileSplit is the traced set-up breakdown. search + lower + rest sums
// to compile by construction (rest is the remainder: fusion, buffer
// planning, verification, wave analysis); load + record + compile is the
// set-up.
type compileSplit struct {
	load, record, compile, search, lower time.Duration
	calls                                int
}

func (c *compileSplit) set(r *report) {
	r.set("datasets.load_ms", "ms", ms(c.load))
	r.set("models.record_ms", "ms", ms(c.record))
	r.set("schedule.search_ms", "ms", ms(c.search))
	r.set("schedule.calls", "count", float64(c.calls))
	r.set("core.lower_ms", "ms", ms(c.lower))
	r.set("program.compile_ms", "ms", ms(c.compile))
	r.set("program.compile_rest_ms", "ms", ms(c.compile-c.search-c.lower))
}

// tracedCompile is models.CompileModel split into its public halves
// (models.Record, program.Compile) with the scheduler and backend wrapped,
// so the same compilation is timed phase by phase.
func tracedCompile(c *compileSplit, m models.Model, g *graph.Graph, feat, classes int, eng models.Engine, b core.ExecBackend) (*program.CompiledProgram, error) {
	start := time.Now()
	p, err := models.Record(m, g, feat, classes)
	c.record += time.Since(start)
	if err != nil {
		return nil, err
	}
	ts := &timedScheduler{eng: eng}
	tb := &timedBackend{ExecBackend: b}
	start = time.Now()
	cp, err := program.Compile(p, g, ts, tb)
	c.compile += time.Since(start)
	c.search += ts.busy
	c.lower += tb.busy
	c.calls += ts.calls
	return cp, err
}

// tracedLoad is datasets.Load, timed into c.
func tracedLoad(c *compileSplit, abbr string) (*graph.Graph, error) {
	start := time.Now()
	g, _, err := datasets.Load(abbr)
	c.load += time.Since(start)
	return g, err
}

// stepSplit aggregates the program's run and step spans into per-kind busy
// time. kinds + dispatch = run by construction; coverage = steps / run.
type stepSplit struct {
	runs                           int
	run, graph, gemm, unary, other time.Duration
	graphSteps                     int
	gemmFlops                      float64
}

// addEvents folds the telemetry events of traced runs into s. flops maps a
// GEMM step's span label to its FLOP count.
func (s *stepSplit) addEvents(evs []telemetry.TraceEvent, flops map[string]float64) {
	for _, ev := range evs {
		if ev.Instant {
			continue
		}
		d := time.Duration(ev.Dur)
		switch ev.Cat {
		case "run":
			s.runs++
			s.run += d
		case "step":
			kind, _, _ := strings.Cut(ev.Name, " ")
			switch kind {
			case program.OpGraph.String():
				s.graph += d
				s.graphSteps++
			case program.OpGEMM.String():
				s.gemm += d
				s.gemmFlops += flops[ev.Name]
			case program.OpUnary.String():
				s.unary += d
			default: // add_scaled, head_merge, concat
				s.other += d
			}
		}
	}
}

// set reports the split per pass: totals divided by passes (a pass is one
// GCN+GAT forward pair on the fwd-* workloads, one served forward on
// serve-mix). edges is the graph's edge count: every graph kernel sweeps
// all edges once.
func (s *stepSplit) set(r *report, passes int, edges int) {
	per := func(d time.Duration) float64 {
		if passes == 0 {
			return 0
		}
		return ms(d) / float64(passes)
	}
	steps := s.graph + s.gemm + s.unary + s.other
	r.set("program.run_ms", "ms", per(s.run))
	r.set("step.graph_ms", "ms", per(s.graph))
	r.set("step.gemm_ms", "ms", per(s.gemm))
	r.set("step.unary_ms", "ms", per(s.unary))
	r.set("step.other_ms", "ms", per(s.other))
	r.set("step.dispatch_ms", "ms", per(s.run-steps))
	cov, eps, gflops := 0.0, 0.0, 0.0
	if s.run > 0 {
		cov = float64(steps) / float64(s.run)
	}
	if s.graph > 0 {
		eps = float64(s.graphSteps) * float64(edges) / s.graph.Seconds()
	}
	if s.gemm > 0 {
		gflops = s.gemmFlops / s.gemm.Seconds() / 1e9
	}
	r.set("step.coverage", "ratio", cov)
	r.set("core.edges_per_s", "1/s", eps)
	r.set("tensor.gemm_gflops", "GFLOP/s", gflops)
}

// gemmFlops maps each GEMM step's span label ("gemm <name>") to 2·m·k·n,
// computed from the compiled program's value shapes.
func gemmFlops(cps []*program.CompiledProgram, numV, numE int) map[string]float64 {
	out := map[string]float64{}
	for _, cp := range cps {
		p := cp.Program()
		for _, n := range p.Nodes {
			if n.Op != program.OpGEMM {
				continue
			}
			rows := p.RowsOf(n.X, numV, numE)
			k, cols := p.Values[n.X].Cols, p.Values[n.Out].Cols
			out[program.OpGEMM.String()+" "+n.Name] += 2 * float64(rows) * float64(k) * float64(cols)
		}
	}
	return out
}

// programShape reports the static program counts, summed over the
// workload's programs, and the steady-state allocations per pass: the
// median over a few untraced runs of every program on x.
func programShape(r *report, cps []*program.CompiledProgram, x *tensor.Dense) error {
	steps, kernels, arena := 0, 0, 0
	for _, cp := range cps {
		st := cp.Stats()
		steps += st.Steps
		kernels += st.GraphKernels
		arena += st.ArenaFloats
	}
	const samples = 5
	allocs := make([]float64, 0, samples)
	var before, after runtime.MemStats
	for i := 0; i < samples; i++ {
		runtime.ReadMemStats(&before)
		for _, cp := range cps {
			if _, err := cp.RunCtx(context.Background(), x); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
	}
	r.set("program.allocs_per_run", "count", median(allocs))
	r.set("program.arena_mib", "MiB", float64(arena)*4/(1<<20))
	r.set("program.steps", "count", float64(steps))
	r.set("program.graph_kernels", "count", float64(kernels))
	return nil
}

// overhead reports tracing overhead (traced ÷ untraced) and its spread:
// the quartile distance of the ratios of interleaved pairs.
func overhead(r *report, ratio float64, ratios []float64) {
	q1, q3 := quartiles(ratios)
	r.set("telemetry.overhead_ratio", "ratio", ratio)
	r.set("telemetry.overhead_ratio.iqr", "ratio", q3-q1)
}
