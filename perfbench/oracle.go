package main

import (
	"math"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// Tolerance of every output check: |got − want| ≤ atol + rtol·max(|got|,|want|),
// the repository's equivalence bound against the reference.
const (
	atol = 1e-4
	rtol = 1e-4
)

// oracle computes m's forward pass independently of the code under test:
// the op-by-op interpreter (not the compiled program), unfused, with fixed
// schedules (no tuner), on the sequential reference backend.
func oracle(m models.Model, g *graph.Graph, x *tensor.Dense, classes int) (*tensor.Dense, error) {
	eng := &models.FixedEngine{
		EngineName:   "oracle",
		Dev:          gpu.V100(),
		AggrSchedule: core.DefaultSchedule,
		MsgCSchedule: core.DefaultSchedule,
		Compute:      core.ReferenceBackend(),
	}
	return m.Forward(g, x, classes, eng)
}

// maxAbsDiff is the largest elementwise |a − b|; +Inf on a shape mismatch
// or a NaN on either side, so a broken output can never pass.
func maxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if !(d <= m) { // also true for NaN
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			m = d
		}
	}
	return m
}

// closeWithSlack reports whether every output p with max|p − got| ≤ slack is
// within tolerance of want: |got − want| + slack ≤ atol + rtol·(max(|got|,|want|) − slack).
// With slack 0 it is the plain tolerance check. It lets a timed loop compare
// each pass with the first one only, and the first one with the oracle
// once, and still bound every pass against the oracle.
func closeWithSlack(got, want []float32, slack float64) bool {
	if len(got) != len(want) || math.IsNaN(slack) || math.IsInf(slack, 0) {
		return false
	}
	for i := range got {
		a, b := float64(got[i]), float64(want[i])
		scale := math.Max(math.Abs(a), math.Abs(b)) - slack
		if scale < 0 {
			scale = 0
		}
		if !(math.Abs(a-b)+slack <= atol+rtol*scale) {
			return false
		}
	}
	return true
}
