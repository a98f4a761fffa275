// Package stats holds the few order statistics the benchmark reports.
package stats

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle sample (the mean of the two middle ones for an
// even count), or NaN for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// a spread computed here matches one computed from the recorded files by
// any script that uses it. Fewer than two samples give the sample itself,
// none gives NaN.
func Quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// Spread is the distance between the quartiles as a share of the median:
// the run-to-run (or sample-to-sample) noise figure every bound is compared
// with. It is 0 for fewer than two samples.
func Spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(Median(xs))
}

// ladder lists the percentiles a tail may be reported at.
var ladder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// Tail returns the highest percentile of the ladder that still has at
// least ten samples beyond it, and the sample at it. With fewer than twenty
// samples no percentile qualifies; Tail then reports the maximum as
// percentile 100, which a reader must take as one observation, not a tail.
func Tail(xs []float64) (percentile, value float64) {
	if len(xs) == 0 {
		return 100, math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	percentile, value = 100, s[n-1]
	for _, p := range ladder {
		// rank is the count of samples at or below the percentile; the
		// epsilon keeps 99.9 % of 10000 at 9990 despite binary rounding.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if n-rank < 10 {
			break
		}
		percentile, value = p, s[rank-1]
	}
	return percentile, value
}
