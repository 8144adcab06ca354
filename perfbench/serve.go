package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// serveWorkload is an open loop of seeded Poisson arrivals into an
// in-process serve.Server through its Handler (no sockets): two fixed-rate
// phases, then a rate ladder for the highest sustainable rate.
type serveWorkload struct {
	dataset string
	models  []string
	// feat and classes are the server's defaults (serve.Config); the
	// benchmark only needs them to shape feature matrices and oracles.
	feat, classes int
	// lowRate and highRate are the fixed phase rates (req/s); each phase
	// sends rate·share·--seconds requests.
	lowRate, highRate   float64
	lowShare, highShare float64
	// ladder is climbed in order, rungSeconds of arrivals per rung, until a
	// rung fails; rate_per_s is the last rung that passed.
	ladder      []float64
	rungSeconds float64
	// limit is the latency limit of a passing rung: ≥ minGood of the
	// requests sent answer 200, correct, within limit of when they were due.
	limit   time.Duration
	minGood float64
	setups  int
	// Request contents: every featEvery-th request carries its own |V|×feat
	// feature matrix from a pool of poolSize seeded matrices; the rest ask
	// for 1..maxVertices vertices of the stored features.
	featEvery   int
	poolSize    int
	maxVertices int
}

var serveMix = serveWorkload{
	dataset: "CO", models: []string{"GCN", "GAT"}, feat: 16, classes: 8,
	lowRate: 50, highRate: 250, lowShare: 0.2, highShare: 0.4,
	// Coarse steps well below capacity (max_rps ≈630 req/s on the reference
	// host), 20 req/s steps around it.
	ladder: []float64{300, 400, 480, 520, 560, 600, 620, 640, 660, 680, 700, 720, 740, 760,
		780, 800, 820, 840, 860, 880, 900},
	rungSeconds: 1,
	limit:       500 * time.Millisecond, minGood: 0.99,
	setups:    3,
	featEvery: 10, poolSize: 3, maxVertices: 32,
}

// reqSpec is one scheduled request.
type reqSpec struct {
	due      time.Duration // offset from the phase start
	model    int
	vertices []int
	pool     int    // feature-pool index, -1 = the server's stored features
	head     []byte // the JSON body, or its head before the pool matrix
}

// arrivals draws a phase's schedule: n requests with exponential gaps at
// rate, their models, vertices and feature-pool picks. The same (seed,
// phase) always gives the same schedule.
func (w serveWorkload) arrivals(seed int64, phase string, rate float64, n, numV int) []reqSpec {
	h := fnv.New64a()
	io.WriteString(h, phase)
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	specs := make([]reqSpec, n)
	t := 0.0
	for i := range specs {
		t += rng.ExpFloat64() / rate
		s := &specs[i]
		s.due = time.Duration(t * float64(time.Second))
		s.model = rng.Intn(len(w.models))
		s.vertices = make([]int, 1+rng.Intn(w.maxVertices))
		for j := range s.vertices {
			s.vertices[j] = rng.Intn(numV)
		}
		s.pool = -1
		if (i+1)%w.featEvery == 0 {
			s.pool = rng.Intn(w.poolSize)
		}
		body, _ := json.Marshal(struct {
			Model    string `json:"model"`
			Vertices []int  `json:"vertices"`
		}{w.models[s.model], s.vertices})
		if s.pool >= 0 {
			body = append(body[:len(body)-1], `,"features":`...)
		}
		s.head = body
	}
	return specs
}

// served is what came back for one request, on the phase clock.
type served struct {
	sent, done time.Duration
	status     int
	body       []byte
}

// drive sends specs on schedule, each on its own goroutine, and waits for
// every one to finish. pool holds the JSON of each feature matrix.
func drive(h http.Handler, specs []reqSpec, pool [][]byte) []served {
	out := make([]served, len(specs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range specs {
		if wait := specs[i].due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].sent = time.Since(start)
		var body io.Reader = bytes.NewReader(specs[i].head)
		if p := specs[i].pool; p >= 0 {
			body = io.MultiReader(body, bytes.NewReader(pool[p]), bytes.NewReader([]byte("}")))
		}
		wg.Add(1)
		go func(i int, body io.Reader) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", body))
			out[i].done = time.Since(start)
			out[i].status = rec.Code
			out[i].body = rec.Body.Bytes()
		}(i, body)
	}
	wg.Wait()
	return out
}

// inferResponse is the part of the server's reply the benchmark reads.
type inferResponse struct {
	Logits   [][]float32 `json:"logits"`
	Batched  int         `json:"batched"`
	Degraded bool        `json:"degraded"`
	Timing   *struct {
		AdmissionMS float64 `json:"admission_ms"`
		QueueWaitMS float64 `json:"queue_wait_ms"`
		BatchWaitMS float64 `json:"batch_wait_ms"`
		KernelMS    float64 `json:"kernel_ms"`
		RespondMS   float64 `json:"respond_ms"`
	} `json:"timing"`
}

// phase is one judged phase: per-request latency from due time, checks
// against the oracle, and the response fields the layer metrics read.
type phase struct {
	n                         int
	good                      int // 200 and correct
	inLimit                   int // good and latency ≤ limit
	wrong, refused, errs      int // wrong logits; 429/504; other statuses
	degraded                  int
	lat, featLat, lag         []float64 // ms; lat/featLat over good requests
	batched                   []float64
	admission, queue, batch   []float64
	kernel, respond           []float64
	firstQuarter, lastQuarter []float64   // lat of good requests by due-time quarter
	byModel                   [][]float64 // lat of good requests per model
}

// judge checks every response of a phase against want[model][pool+1]
// (index 0 = stored features) and tallies the phase.
func (w serveWorkload) judge(specs []reqSpec, res []served, want [][]*tensor.Dense) phase {
	ph := phase{n: len(specs), byModel: make([][]float64, len(w.models))}
	for i, s := range specs {
		lat, lag := account(s.due, res[i].sent, res[i].done)
		ph.lag = append(ph.lag, ms(lag))
		switch res[i].status {
		case http.StatusOK:
		case http.StatusTooManyRequests, http.StatusGatewayTimeout:
			ph.refused++
			continue
		default:
			ph.errs++
			fmt.Fprintf(os.Stderr, "perfbench: request %d: HTTP %d: %s\n", i, res[i].status, bytes.TrimSpace(res[i].body))
			continue
		}
		var resp inferResponse
		if err := json.Unmarshal(res[i].body, &resp); err != nil || !rowsMatch(resp.Logits, s.vertices, want[s.model][s.pool+1]) {
			ph.wrong++
			fmt.Fprintf(os.Stderr, "perfbench: request %d (%s, pool %d): logits differ from the reference oracle\n",
				i, w.models[s.model], s.pool)
			continue
		}
		ph.good++
		if lat <= w.limit {
			ph.inLimit++
		}
		ph.lat = append(ph.lat, ms(lat))
		ph.byModel[s.model] = append(ph.byModel[s.model], ms(lat))
		if s.pool >= 0 {
			ph.featLat = append(ph.featLat, ms(lat))
		}
		switch q := 4 * i / len(specs); q {
		case 0:
			ph.firstQuarter = append(ph.firstQuarter, ms(lat))
		case 3:
			ph.lastQuarter = append(ph.lastQuarter, ms(lat))
		}
		ph.batched = append(ph.batched, float64(resp.Batched))
		if resp.Degraded {
			ph.degraded++
		}
		if t := resp.Timing; t != nil {
			ph.admission = append(ph.admission, t.AdmissionMS)
			ph.queue = append(ph.queue, t.QueueWaitMS)
			ph.batch = append(ph.batch, t.BatchWaitMS)
			ph.kernel = append(ph.kernel, t.KernelMS)
			ph.respond = append(ph.respond, t.RespondMS)
		}
	}
	return ph
}

// rowsMatch checks each returned row against the oracle's row for the
// requested vertex.
func rowsMatch(got [][]float32, vertices []int, want *tensor.Dense) bool {
	if len(got) != len(vertices) {
		return false
	}
	for i, v := range vertices {
		if !closeWithSlack(got[i], want.Data[v*want.Cols:(v+1)*want.Cols], 0) {
			return false
		}
	}
	return true
}

// holds reports whether a ladder rung held: enough requests good within
// the limit, and no growing backlog.
func (w serveWorkload) holds(ph phase) bool {
	if float64(ph.inLimit) < w.minGood*float64(ph.n) {
		return false
	}
	return !growingBacklog(ph.firstQuarter, ph.lastQuarter, ms(w.limit))
}

// growingBacklog reports a queue that kept growing through a rung: the
// median latency of the rung's last quarter is over twice the first
// quarter's and has climbed by more than half the latency limit. A rung
// with no good request in its last quarter counts as growing.
func growingBacklog(first, last []float64, limitMS float64) bool {
	if len(last) == 0 {
		return true
	}
	if len(first) == 0 {
		return false
	}
	f, l := median(first), median(last)
	return l > 2*f && l-f > limitMS/2
}

// count records a phase's requests as operations: refusals and errors fail
// where fail is true (the fixed-rate phases, meant to be within capacity);
// wrong logits and server errors fail everywhere.
func (ph phase) count(r *report, fail bool) {
	for i := 0; i < ph.good; i++ {
		r.op(nil, true)
	}
	for i := 0; i < ph.wrong; i++ {
		r.op(nil, false)
	}
	for i := 0; i < ph.errs; i++ {
		r.op(fmt.Errorf("server error"), false)
	}
	for i := 0; i < ph.refused; i++ {
		if fail {
			r.op(fmt.Errorf("refused"), false)
		} else {
			r.attempted++
		}
	}
}

// setup is what an operator pays before serving: serve.New loads the
// dataset and compiles every model's primary and degraded programs.
func (w serveWorkload) setup() (*serve.Server, time.Duration, error) {
	start := time.Now()
	s, err := serve.New(serve.Config{Dataset: w.dataset, Models: w.models})
	return s, time.Since(start), err
}

// tracedSetup repeats serve.New's compile work outside the server, phase
// by phase, for the set-up breakdown: the same dataset, models, engine and
// backends (the parallel primary and its resilient fallback). It returns
// the primary programs.
func (w serveWorkload) tracedSetup(c *compileSplit) (*graph.Graph, []*program.CompiledProgram, error) {
	g, err := tracedLoad(c, w.dataset)
	if err != nil {
		return nil, nil, err
	}
	var primaries []*program.CompiledProgram
	for _, name := range w.models {
		m, err := models.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		b := core.NewShardedParallelBackend(0, core.DefaultShards())
		for _, be := range []core.ExecBackend{b, core.NewResilientBackend(b, nil)} {
			cp, err := tracedCompile(c, m, g, w.feat, w.classes, models.NewTunedEngine(gpu.V100()), be)
			if err != nil {
				return nil, nil, fmt.Errorf("compile %s: %w", name, err)
			}
			if be == b {
				primaries = append(primaries, cp)
			}
		}
	}
	return g, primaries, nil
}

// storedFeatures is the matrix serve.New serves vertex queries from
// (seeded like cmd/ugrapher's -model path, as the serve package documents).
func (w serveWorkload) storedFeatures(numV int) *tensor.Dense {
	x := tensor.NewDense(numV, w.feat)
	x.FillRandom(rand.New(rand.NewSource(42)), 1)
	return x
}

// inputs draws the feature pool and computes the oracle for every model ×
// (stored features, pool matrices); it returns the pool's JSON encodings.
func (w serveWorkload) inputs(seed int64, g *graph.Graph) ([][]byte, [][]*tensor.Dense, error) {
	rng := rand.New(rand.NewSource(seed))
	xs := []*tensor.Dense{w.storedFeatures(g.NumVertices())}
	pool := make([][]byte, w.poolSize)
	for p := range pool {
		x := tensor.NewDense(g.NumVertices(), w.feat)
		x.FillRandom(rng, 1)
		xs = append(xs, x)
		rows := make([][]float32, x.Rows)
		for i := range rows {
			rows[i] = x.Data[i*x.Cols : (i+1)*x.Cols]
		}
		b, err := json.Marshal(rows)
		if err != nil {
			return nil, nil, err
		}
		pool[p] = b
	}
	want := make([][]*tensor.Dense, len(w.models))
	for mi, name := range w.models {
		m, err := models.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		for _, x := range xs {
			o, err := oracle(m, g, x, w.classes)
			if err != nil {
				return nil, nil, fmt.Errorf("oracle %s: %w", name, err)
			}
			want[mi] = append(want[mi], o)
		}
	}
	return pool, want, nil
}

// requests converts a rate and a duration into a fixed request count.
func requests(rate, seconds float64) int {
	return max(tailBeyond+1, int(math.Round(rate*seconds)))
}

func (w serveWorkload) run(cfg config) (*report, error) {
	r := newReport()
	var (
		srv    *serve.Server
		shapes []*program.CompiledProgram
	)
	if cfg.trace {
		var c compileSplit
		g, cps, err := w.tracedSetup(&c)
		if err != nil {
			return nil, err
		}
		c.set(r)
		if err := programShape(r, cps, w.storedFeatures(g.NumVertices())); err != nil {
			return nil, err
		}
		shapes = cps
		if srv, _, err = w.setup(); err != nil {
			return nil, err
		}
	} else {
		times := make([]float64, 0, w.setups)
		for i := 0; i < w.setups; i++ {
			if srv != nil {
				if err := srv.Drain(10 * time.Second); err != nil {
					return nil, err
				}
			}
			srv = nil
			runtime.GC()
			debug.FreeOSMemory()
			s, d, err := w.setup()
			if err != nil {
				return nil, err
			}
			srv = s
			times = append(times, d.Seconds())
		}
		r.set("setup_s", "s", median(times))
		r.set("setup_s.samples", "count", float64(len(times)))
	}
	defer func() {
		if err := srv.Drain(10 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: drain: %v\n", err)
		}
	}()

	g := srv.Graph()
	pool, want, err := w.inputs(cfg.seed, g)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	numV := g.NumVertices()
	var lags []float64
	run := func(name string, rate float64, n int) phase {
		specs := w.arrivals(cfg.seed, name, rate, n, numV)
		ph := w.judge(specs, drive(h, specs, pool), want)
		lags = append(lags, ph.lag...)
		return ph
	}
	nLow := requests(w.lowRate, w.lowShare*float64(cfg.seconds))
	nHigh := requests(w.highRate, w.highShare*float64(cfg.seconds))

	if cfg.trace {
		telemetry.Reset()
		defer telemetry.Reset()
		// Low phase in windows alternating untraced and traced (ABBA), for
		// the tracing overhead on low-rate request latency. The ratio is
		// taken per model (GCN and GAT latencies differ several-fold, so a
		// pooled median would jump between them) and averaged.
		const pairs = 4
		plain := make([][]float64, len(w.models))
		traced := make([][]float64, len(w.models))
		var ratios, kernelLow []float64
		for j := 0; j < pairs; j++ {
			var win [2]phase // untraced, traced
			for k := 0; k < 2; k++ {
				on := (k == 0) == (j%2 == 1)
				telemetry.SetEnabled(on)
				ph := run("low-"+strconv.Itoa(2*j+k), w.lowRate, nLow/2)
				telemetry.SetEnabled(false)
				ph.count(r, true)
				if on {
					win[1] = ph
					kernelLow = append(kernelLow, ph.kernel...)
				} else {
					win[0] = ph
				}
			}
			ratios = append(ratios, modelRatio(win[1].byModel, win[0].byModel))
			for m := range w.models {
				plain[m] = append(plain[m], win[0].byModel[m]...)
				traced[m] = append(traced[m], win[1].byModel[m]...)
			}
		}
		overhead(r, modelRatio(traced, plain), ratios)
		r.set("serve.kernel_ms.low.p50", "ms", median(kernelLow))

		telemetry.SetEnabled(true)
		high := run("high", w.highRate, nHigh)
		telemetry.SetEnabled(false)
		high.count(r, true)
		w.setStages(r, high)

		var split stepSplit
		split.addEvents(telemetry.Default().Events(), gemmFlops(shapes, numV, g.NumEdges()))
		split.set(r, split.runs, g.NumEdges())
		setTail(r, "gen.lag_ms.tail", lags)
		return r, nil
	}

	low := run("low", w.lowRate, nLow)
	low.count(r, true)
	high := run("high", w.highRate, nHigh)
	high.count(r, true)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mib", "MiB", rss)

	// The ladder climbs until two rungs in a row fail, so one unlucky rung
	// below capacity does not end it.
	maxRPS, rungs, failing := 0.0, 0, 0
	for _, rate := range w.ladder {
		ph := run("ladder-"+strconv.FormatFloat(rate, 'f', -1, 64), rate, requests(rate, w.rungSeconds))
		ph.count(r, false)
		rungs++
		ok := w.holds(ph)
		fmt.Fprintf(os.Stderr, "perfbench: rung %g req/s: sent %d, good %d, within %v %d, refused %d, p50 first/last quarter %.1f/%.1f ms, pass %v\n",
			rate, ph.n, ph.good, w.limit, ph.inLimit, ph.refused, median(ph.firstQuarter), median(ph.lastQuarter), ok)
		if !ok {
			if failing++; failing == 2 {
				break
			}
			continue
		}
		failing = 0
		maxRPS = rate
	}
	setPhase(r, "req_ms.low", low.lat)
	p50, tl := setPhase(r, "req_ms.high", high.lat)
	for mi, name := range w.models {
		r.set("req_ms.low."+strings.ToLower(name)+".p50", "ms", median(low.byModel[mi]))
		r.set("req_ms.high."+strings.ToLower(name)+".p50", "ms", median(high.byModel[mi]))
	}
	r.set("lat_ms.p50", "ms", p50)
	r.set("lat_ms.tail", "ms", tl)
	r.set("rate_per_s", "1/s", maxRPS)
	r.set("max_rps", "1/s", maxRPS)
	r.set("ladder.rungs_run", "count", float64(rungs))
	r.set("featreq_ms.high.p50", "ms", median(high.featLat))
	r.set("featreq_ms.high.samples", "count", float64(len(high.featLat)))
	r.set("fail_ratio.low", "ratio", ratio(low.n-low.good, low.n))
	r.set("fail_ratio.high", "ratio", ratio(high.n-high.good, high.n))
	setTail(r, "gen.lag_ms.tail", lags)
	return r, nil
}

// modelRatio is the mean over models of median(a[m]) / median(b[m]).
func modelRatio(a, b [][]float64) float64 {
	sum := 0.0
	for m := range a {
		sum += median(a[m]) / median(b[m])
	}
	return sum / float64(len(a))
}

// setPhase reports a phase's p50, tail, tail percentile and sample count
// under prefix, and returns the p50 and tail.
func setPhase(r *report, prefix string, lat []float64) (p50, tl float64) {
	p50 = median(lat)
	r.set(prefix+".p50", "ms", p50)
	tl = setTail(r, prefix+".tail", lat)
	r.set(prefix+".tail_pct", "%", tailPercentile(len(lat)))
	r.set(prefix+".samples", "count", float64(len(lat)))
	return p50, tl
}

// setTail reports the tail of xs (NaN, which fails the run, when there are
// too few samples for one).
func setTail(r *report, name string, xs []float64) float64 {
	v, _, ok := tail(xs)
	if !ok {
		v = math.NaN()
	}
	r.set(name, "ms", v)
	return v
}

// setStages reports the serving-layer metrics of a traced phase, read from
// the responses' timing blocks.
func (w serveWorkload) setStages(r *report, ph phase) {
	r.set("serve.admission_ms.p50", "ms", median(ph.admission))
	r.set("serve.queue_wait_ms.p50", "ms", median(ph.queue))
	setTail(r, "serve.queue_wait_ms.tail", ph.queue)
	r.set("serve.batch_wait_ms.p50", "ms", median(ph.batch))
	r.set("serve.kernel_ms.p50", "ms", median(ph.kernel))
	r.set("serve.respond_ms.p50", "ms", median(ph.respond))
	sum := 0.0
	for _, b := range ph.batched {
		sum += b
	}
	r.set("serve.batch_size.mean", "count", sum/float64(max(1, len(ph.batched))))
	r.set("serve.rejected_ratio", "ratio", ratio(ph.refused, ph.n))
	r.set("serve.degraded_ratio", "ratio", ratio(ph.degraded, ph.n))
}
