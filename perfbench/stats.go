package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// rounded so that binary floating point never adds a rank.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailLadder holds the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail is a latency tail: the highest percentile on tailLadder that has
// at least minBeyond samples strictly above its nearest rank, with the
// sample count it was taken from.
type tail struct {
	Pct   float64
	Value float64
	N     int
	OK    bool
}

func (t tail) String() string {
	if !t.OK {
		return fmt.Sprintf("tail unsupported (n=%d)", t.N)
	}
	return fmt.Sprintf("p%g=%.4g ms (n=%d)", t.Pct, t.Value, t.N)
}

// tailOf computes the tail of xs. OK is false when the sample is too
// small for even the median to have minBeyond samples beyond it.
func tailOf(xs []float64) tail {
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailLadder {
		r := rank(p, n)
		if r >= 1 && n-r >= minBeyond {
			return tail{Pct: p, Value: s[r-1], N: n, OK: true}
		}
	}
	return tail{N: n}
}

// tailUnit is the unit of a latency tail over n samples in ms: it names
// the percentile tailOf takes for that count, and the count.
func tailUnit(n int) string {
	return fmt.Sprintf("ms_p%g_n%d", tailOf(make([]float64, n)).Pct, n)
}

// gmean is the geometric mean of the positive values in xs (0 when none).
func gmean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// msOf converts nanoseconds to milliseconds.
func msOf(ns int64) float64 { return float64(ns) / 1e6 }
