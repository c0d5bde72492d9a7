package main

import "testing"

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // the exclusive method extrapolates past the data
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10_000, 0.999, true},
		{1024, 0.99, true},
		{1000, 0.99, true},
		{999, 0.95, true},
		{100, 0.9, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		p, ok := tailLevel(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(p, tc.n) < 10 {
			t.Errorf("tailLevel(%d) = %v leaves %d samples beyond it", tc.n, p, tc.n-rank(p, tc.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 .. 1
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := withSelfTimes([]span{
		{Name: "rep", ID: 1, Start: 0, End: 10},
		{Name: "a", ID: 2, Parent: 1, Start: 1, End: 4},
		{Name: "b", ID: 3, Parent: 1, Start: 3, End: 6}, // overlaps a
		{Name: "c", ID: 4, Parent: 3, Start: 4, End: 5},
	})
	want := map[string]float64{"rep": 5, "a": 3, "b": 2, "c": 1}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %v, want %v", s.Name, s.Self, want[s.Name])
		}
	}
}
