package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct     float64
		hasTail bool
	}{
		{10, 0, false}, {11, 100.0 / 11, true}, {20, 50, true}, {40, 75, true},
		{200, 95, true}, {1000, 99, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending, so tail must sort
		}
		v, pct, ok := tail(xs)
		if ok != tc.hasTail {
			t.Fatalf("n=%d: tail ok=%v, want %v", tc.n, ok, tc.hasTail)
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
		if math.Abs(pct-tc.pct) > 1e-9 || math.Abs(tailPercentile(tc.n)-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail percentile %v, want %v", tc.n, pct, tc.pct)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, the rule run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestArrivalScheduleIsDeterministic(t *testing.T) {
	a := serveMix.arrivals(7, "high", 300, 500, 2708)
	b := serveMix.arrivals(7, "high", 300, 500, 2708)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and phase gave different schedules")
	}
	if reflect.DeepEqual(a, serveMix.arrivals(8, "high", 300, 500, 2708)) {
		t.Error("a different seed gave the same schedule")
	}
	if reflect.DeepEqual(a, serveMix.arrivals(7, "low", 300, 500, 2708)) {
		t.Error("a different phase gave the same schedule")
	}
	feat := 0
	for i, s := range a {
		if i > 0 && s.due < a[i-1].due {
			t.Fatalf("request %d due before request %d", i, i-1)
		}
		if n := len(s.vertices); n < 1 || n > serveMix.maxVertices {
			t.Fatalf("request %d asks for %d vertices", i, n)
		}
		if s.pool >= 0 {
			feat++
			if (i+1)%serveMix.featEvery != 0 {
				t.Fatalf("request %d carries features off the every-%dth slot", i, serveMix.featEvery)
			}
		}
	}
	if feat != len(a)/serveMix.featEvery {
		t.Errorf("%d feature-bearing requests, want %d", feat, len(a)/serveMix.featEvery)
	}
	// Poisson at 300 req/s: 500 arrivals span about 500/300 s.
	if span := a[len(a)-1].due.Seconds(); span < 1.3 || span > 2.1 {
		t.Errorf("500 arrivals at 300 req/s span %.2fs", span)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	// Due at 10ms, sent 5ms late by a stalled generator, answered at 22ms:
	// the request waited 12ms from when it was due, 5ms of it the
	// generator's fault.
	lat, lag := account(10*time.Millisecond, 15*time.Millisecond, 22*time.Millisecond)
	if lat != 12*time.Millisecond || lag != 5*time.Millisecond {
		t.Errorf("latency %v lag %v, want 12ms and 5ms", lat, lag)
	}
}

func TestGrowingBacklog(t *testing.T) {
	steady := []float64{10, 12, 11, 14}
	for _, tc := range []struct {
		first, last []float64
		want        bool
	}{
		{steady, []float64{11, 13, 12}, false},
		{steady, []float64{20, 24, 30}, false}, // doubled, but by less than limit/2
		{steady, []float64{70, 90, 80}, true},
		{steady, nil, true}, // nothing good came back late in the rung
	} {
		if got := growingBacklog(tc.first, tc.last, 100); got != tc.want {
			t.Errorf("growingBacklog(%v, %v) = %v, want %v", tc.first, tc.last, got, tc.want)
		}
	}
}

func TestCloseWithSlack(t *testing.T) {
	want := []float32{1, -2, 0}
	if !closeWithSlack([]float32{1.00005, -2, 0}, want, 0) {
		t.Error("a difference within tolerance was rejected")
	}
	if closeWithSlack([]float32{1.001, -2, 0}, want, 0) {
		t.Error("a difference beyond tolerance was accepted")
	}
	if closeWithSlack([]float32{1.00005, -2, 0}, want, 2e-4) {
		t.Error("slack that could carry a later pass past tolerance was accepted")
	}
	if closeWithSlack([]float32{float32(math.NaN()), -2, 0}, want, 0) {
		t.Error("NaN was accepted")
	}
	if !math.IsInf(maxAbsDiff([]float32{float32(math.NaN())}, []float32{0}), 1) {
		t.Error("maxAbsDiff hides a NaN")
	}
}

func TestRefusesUgrapherKnobs(t *testing.T) {
	got := ugrapherKnobs([]string{"HOME=/x", "UGRAPHER_WORKERS=1", "UGRAPHER_SHARDS=", "GOMAXPROCS=2"})
	if want := []string{"UGRAPHER_SHARDS", "UGRAPHER_WORKERS"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ugrapherKnobs = %v, want %v", got, want)
	}
}

// The result format's charsets: a name is a letter or digit, then at most 63
// more letters, digits, '_', '.' or '-'; a unit is 1–16 letters, digits,
// '_', '/', '%', '.' or '-'.
var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`).MatchString
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString
)

// The metric and workload tables must fit the result format and agree with
// BENCHMARK.json at the repository root.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		if !validName(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !validName(d.name) || !validUnit(d.unit) || seen[d.name] {
				t.Errorf("metric %q (unit %q): bad name or unit, or used twice", d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	for _, bad := range []string{"", ".p50", "a b", "ms/s", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) accepted", bad)
		}
	}
	if validUnit("") || validUnit("seconds-per-request") || validUnit("m s") {
		t.Error("validUnit accepted a bad unit")
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, benchmark reports %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestResultLineShape(t *testing.T) {
	r := newReport()
	r.op(nil, true)
	for _, d := range endToEnd {
		r.set(d.name, d.unit, 1.5)
	}
	r.set("extra.only_printed", "ms", 2)
	line, err := r.result(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result keys: %s", line)
	}
	var ms map[string]metricValue
	if err := json.Unmarshal(got["metrics"], &ms); err != nil || len(ms) != len(endToEnd) {
		t.Errorf("metrics: %s (%v)", got["metrics"], err)
	}

	r.set("lat_ms.tail", "ms", math.NaN())
	if _, err := r.result(endToEnd); err == nil {
		t.Error("a NaN metric was printed")
	}
	if _, err := newReport().result(endToEnd); err == nil {
		t.Error("a run with no operations printed a result")
	}
}

func TestDriveSendsOnScheduleAndCollectsEveryReply(t *testing.T) {
	specs := serveMix.arrivals(3, "drive", 2000, 60, 100)
	pool := [][]byte{[]byte(`[[1]]`), []byte(`[[2]]`), []byte(`[[3]]`)}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if !json.Valid(body) {
			w.WriteHeader(http.StatusBadRequest)
		}
		w.Write(body)
	})
	res := drive(h, specs, pool)
	for i, s := range specs {
		got := res[i]
		if got.status != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, got.status, got.body)
		}
		if got.sent < s.due || got.done < got.sent {
			t.Errorf("request %d: due %v, sent %v, done %v", i, s.due, got.sent, got.done)
		}
		if want := len(s.head); s.pool < 0 && len(got.body) != want {
			t.Errorf("request %d: echoed %d bytes, sent %d", i, len(got.body), want)
		}
	}
}
