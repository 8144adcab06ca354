package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, printed with --trace 0 and
// bounded in BENCHMARK.json. Every workload reports every one of them, so
// the names are generic; README.md maps each to its meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"lat_ms.p50", "ms"},
	{"lat_ms.tail", "ms"},
	{"rate_per_s", "1/s"},
}

// perLayer attributes time to the repository's layers, printed with
// --trace 1. A layer a workload does not exercise reads 0 there (the serve.*
// stages on the fwd-* workloads).
var perLayer = []metricDef{
	{"datasets.load_ms", "ms"},
	{"models.record_ms", "ms"},
	{"schedule.search_ms", "ms"},
	{"schedule.calls", "count"},
	{"core.lower_ms", "ms"},
	{"program.compile_ms", "ms"},
	{"program.compile_rest_ms", "ms"},
	{"program.run_ms", "ms"},
	{"step.graph_ms", "ms"},
	{"step.gemm_ms", "ms"},
	{"step.unary_ms", "ms"},
	{"step.other_ms", "ms"},
	{"step.dispatch_ms", "ms"},
	{"step.coverage", "ratio"},
	{"core.edges_per_s", "1/s"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"program.allocs_per_run", "count"},
	{"program.arena_mib", "MiB"},
	{"program.steps", "count"},
	{"program.graph_kernels", "count"},
	{"serve.admission_ms.p50", "ms"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.tail", "ms"},
	{"serve.batch_wait_ms.p50", "ms"},
	{"serve.kernel_ms.p50", "ms"},
	{"serve.kernel_ms.low.p50", "ms"},
	{"serve.respond_ms.p50", "ms"},
	{"serve.batch_size.mean", "count"},
	{"serve.rejected_ratio", "ratio"},
	{"serve.degraded_ratio", "ratio"},
	{"gen.lag_ms.tail", "ms"},
	{"telemetry.overhead_ratio", "ratio"},
	{"telemetry.overhead_ratio.iqr", "ratio"},
}

// report accumulates a run's measurements: the declared metrics plus the
// workload-specific names the human-readable lines also print.
type report struct {
	attempted, failed int
	// wrong counts outputs that disagreed with the oracle (a subset of
	// failed); correct is false when any did.
	wrong  int
	names  []string
	values map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{values: map[string]metricValue{}} }

// set records a metric; a later set of the same name overwrites it.
func (r *report) set(name, unit string, v float64) {
	if _, dup := r.values[name]; !dup {
		r.names = append(r.names, name)
	}
	r.values[name] = metricValue{Value: v, Unit: unit}
}

// op records one checked operation: err != nil or !ok counts as failed,
// and !ok (a wrong output) also as wrong.
func (r *report) op(err error, ok bool) {
	r.attempted++
	if err != nil || !ok {
		r.failed++
	}
	if err == nil && !ok {
		r.wrong++
	}
}

// writeLines prints every recorded value, one "name = value unit" line each.
func (r *report) writeLines(w io.Writer) {
	fmt.Fprintf(w, "ops: attempted=%d failed=%d wrong=%d fail_ratio=%.6g\n",
		r.attempted, r.failed, r.wrong, ratio(r.failed, r.attempted))
	for _, n := range r.names {
		v := r.values[n]
		fmt.Fprintf(w, "metric %s = %.6g %s\n", n, v.Value, v.Unit)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result selects defs from the recorded values. A missing or non-finite
// value is a benchmark bug and fails the run rather than printing a partial
// result.
func (r *report) result(defs []metricDef) ([]byte, error) {
	out := result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v.Value)
		}
		if v.Unit != d.unit {
			return nil, fmt.Errorf("metric %s recorded in %s, declared in %s", d.name, v.Unit, d.unit)
		}
		out.Metrics[d.name] = v
	}
	return json.Marshal(out)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
