package schedule

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
)

// goldenPath holds the full GridSearch candidate lists of the simulator as
// it stood before the search was parallelised and the cache model was made
// cheaper. Every speed change to GridSearch or gpu.Simulate must reproduce
// it bit for bit; only a deliberate cost-model change may rewrite it (from
// goldenReport's output).
const goldenPath = "testdata/gridsearch_golden.txt"

// goldenTask is one named tuning problem of the golden matrix.
type goldenTask struct {
	name string
	task Task
}

// goldenTasks is the golden matrix: CO and the small skewed synthetic graph
// x {copy_u.sum, u_mul_e.sum, copy_u.max} x feat {8, 64}.
func goldenTasks(t *testing.T) []goldenTask {
	t.Helper()
	co, _, err := datasets.Load("CO")
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"CO", co}, {"skewed", smallTask(t, true).Graph}}
	var out []goldenTask
	for _, gr := range graphs {
		for _, opName := range []string{"copy_u.sum", "u_mul_e.sum", "copy_u.max"} {
			e, ok := ops.Lookup(opName)
			if !ok {
				t.Fatalf("unknown op %s", opName)
			}
			for _, feat := range []int{8, 64} {
				task := Task{Graph: gr.g, Op: e.Info, Feat: feat, Device: gpu.V100()}.Widths(true)
				out = append(out, goldenTask{fmt.Sprintf("%s %s F%d", gr.name, opName, feat), task})
			}
		}
	}
	return out
}

// formatCandidate renders one candidate with every Metrics field; floats use
// the shortest round-tripping form, so equal text means bit-equal values.
func formatCandidate(c Candidate) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	m := c.Metrics
	return strings.Join([]string{
		c.Schedule.String(),
		f(m.Cycles), f(m.Occupancy), f(m.SMEfficiency), f(m.L1HitRate), f(m.L2HitRate),
		f(m.Insts), f(m.Transactions), f(m.L1Requests), f(m.AtomicTransactions),
		f(m.L2Accesses), f(m.DRAMBytes),
		strconv.Itoa(m.NumBlocks), strconv.Itoa(m.WarpsPerBlock), strconv.Itoa(m.SampledBlocks),
		m.BoundBy,
	}, " ")
}

// goldenReport runs GridSearch over the full space for every golden task and
// renders the ranked candidate lists, one "# task" header per list.
func goldenReport(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, gt := range goldenTasks(t) {
		lines = append(lines, "# "+gt.name)
		for _, c := range GridSearch(gt.task, nil) {
			lines = append(lines, formatCandidate(c))
		}
	}
	return lines
}

// TestGridSearchGolden: every candidate's schedule, rank and Metrics match
// the committed golden file exactly.
func TestGridSearchGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	got := goldenReport(t)
	if len(got) != len(want) {
		t.Errorf("golden has %d lines, GridSearch produced %d", len(want), len(got))
	}
	task := ""
	for i := 0; i < len(got) && i < len(want); i++ {
		if strings.HasPrefix(want[i], "# ") {
			task = want[i]
		}
		if got[i] != want[i] {
			t.Fatalf("line %d (%s) differs:\n got  %s\n want %s", i+1, task, got[i], want[i])
		}
	}
}

// TestGridSearchWorkerCountInvariant: the fan-out returns identical slices
// whether it runs on one goroutine or on every CPU.
func TestGridSearchWorkerCountInvariant(t *testing.T) {
	task := smallTask(t, true)
	task.Feat, task.ACols = 64, 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := GridSearch(task, nil)
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel := GridSearch(task, nil)
	if len(serial) != len(parallel) {
		t.Fatalf("GOMAXPROCS(1) gave %d candidates, GOMAXPROCS(%d) gave %d", len(serial), runtime.NumCPU(), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("candidate %d differs:\n GOMAXPROCS(1)  %s\n GOMAXPROCS(%d) %s",
				i, formatCandidate(serial[i]), runtime.NumCPU(), formatCandidate(parallel[i]))
		}
	}
}
