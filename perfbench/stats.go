package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples the tail percentile must leave above it.
// The tail of n samples is therefore the 11th-largest sample, and its
// percentile is 100·(n−tailBeyond)/n; with fewer than tailBeyond+1 samples
// no tail exists.
const tailBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for even counts). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-percentile sample that still leaves tailBeyond
// samples above it (nearest rank), and that percentile. ok is false when
// there are too few samples for any tail.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return math.NaN(), 0, false
	}
	s := sortedCopy(xs)
	return s[n-tailBeyond-1], tailPercentile(n), true
}

// tailPercentile is the percentile tail reports for n samples.
func tailPercentile(n int) float64 {
	if n <= tailBeyond {
		return 0
	}
	return 100 * float64(n-tailBeyond) / float64(n)
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// CPython's integer arithmetic, clamp (and hence the slight
		// extrapolation for tiny n) included.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// account splits an open-loop request's timeline into what the benchmark
// reports: latency runs from when the request was due (not when the
// generator got round to sending it), so a stalled generator or server
// charges its stall to every request it delayed; lag is how late the
// generator sent it.
func account(due, sent, done time.Duration) (latency, lag time.Duration) {
	return done - due, sent - due
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
