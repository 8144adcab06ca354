// Command perfbench is the repository benchmark: it drives the public entry
// points of the system (models.CompileModel / CompiledProgram.RunCtx for the
// forward workloads, serve.New / Server.Handler for the serving workload) at
// their defaults, checks every output against an independent reference
// oracle, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload fwd-skewed --seed 1 --seconds 16 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
// run that attributes time to the layers (datasets, models, schedule,
// program, core, tensor, serve). README.md describes the workloads.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/program"
)

// config is one invocation's parameters.
type config struct {
	seed    int64
	seconds int
	trace   bool
}

// workload is one named input set. run returns the measurements of a timed
// (trace=false) or traced (trace=true) run.
type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{"fwd-skewed", fwdSkewed.run},
	{"fwd-dense", fwdDense.run},
	{"serve-mix", serveMix.run},
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	name := flag.String("workload", "", "workload to run: fwd-skewed, fwd-dense or serve-mix")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs (features, arrivals, request contents)")
	seconds := flag.Int("seconds", 16, "measurement budget; sets each workload's fixed sample counts")
	trace := flag.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	root := flag.String("root", ".", "repository root, hashed into the reported source digest")
	commit := flag.String("commit", "none", "commit the checkout was taken from, when known")
	flag.Parse()

	if knobs := ugrapherKnobs(os.Environ()); len(knobs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to run with %s set: the benchmark measures the defaults users get\n",
			strings.Join(knobs, ", "))
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fwd-skewed|fwd-dense|serve-mix --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}

	src, err := sourceDigest(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	facts, err := json.Marshal(hostFacts(w.name, cfg, *commit, src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("host %s\n", facts)

	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := rep.result(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.writeLines(os.Stdout)
	fmt.Printf("%s\n", line)
	return 0
}

// ugrapherKnobs lists the UGRAPHER_* variables set in env. Any of them
// would move the run off the defaults (backend, shards, workers).
func ugrapherKnobs(env []string) []string {
	var knobs []string
	for _, kv := range env {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "UGRAPHER_") {
			knobs = append(knobs, k)
		}
	}
	sort.Strings(knobs)
	return knobs
}

// hostFacts records what a result was measured on and with.
func hostFacts(name string, cfg config, commit, src string) map[string]any {
	b := core.DefaultBackend()
	return map[string]any{
		"workload":       name,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"trace":          cfg.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"backend":        b.Name(),
		"workers":        core.Workers(b),
		"shards":         core.DefaultShards(),
		"parallel_steps": program.ParallelSteps(),
		"go":             runtime.Version(),
		"goarch":         runtime.GOARCH,
		"commit":         commit,
		"source_sha256":  src,
	}
}

// sourceDigest hashes the repository's Go sources and module files, so a
// result names the code it measured even where no commit id is at hand.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return "", err
		}
		f, err := os.Open(p)
		if err != nil {
			return "", fmt.Errorf("hashing sources: %w", err)
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("hashing %s: %w", rel, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
