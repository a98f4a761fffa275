package stats

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[(i*7)%n] = float64(i + 1) // 1..n, shuffled when 7 does not divide n
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{seq(10), 5.5},
	} {
		if got := Median(tc.xs); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median of nothing is not NaN")
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{4}, 4, 4},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{seq(10), 2.75, 8.25},
		{seq(11), 3, 9},
	} {
		q1, q3 := Quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := Spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %v", got)
	}
	if got := Spread(seq(10)); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		percentile float64
		value      float64
	}{
		{1, 100, 1},    // nothing qualifies: the maximum, flagged as 100
		{19, 100, 19},  // p50 would leave nine beyond
		{20, 50, 10},   // ten beyond the median exactly
		{39, 50, 20},   // p75 → rank 30, nine beyond
		{40, 75, 30},   //
		{100, 90, 90},  // p95 would leave five
		{200, 95, 190}, //
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		p, v := Tail(seq(tc.n))
		if p != tc.percentile || v != tc.value {
			t.Errorf("Tail(1..%d) = p%v %v, want p%v %v", tc.n, p, v, tc.percentile, tc.value)
		}
	}
}
