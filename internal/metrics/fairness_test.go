package metrics

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSlowdowns(t *testing.T) {
	got := Slowdowns([]float64{1, 2, 0, 4}, []float64{2, 2, 3, 0})
	want := []float64{2, 1, 0, 0} // unmeasured entries are 0, not Inf
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Errorf("slowdown[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestUnfairness(t *testing.T) {
	// Equal slowdowns: perfectly fair.
	if got := Unfairness([]float64{1, 2, 3}, []float64{2, 4, 6}); !approx(got, 1) {
		t.Errorf("uniform slowdown: unfairness %g, want 1", got)
	}
	// Slowdowns {4, 1}: unfairness 4.
	if got := Unfairness([]float64{0.5, 2}, []float64{2, 2}); !approx(got, 4) {
		t.Errorf("unfairness %g, want 4", got)
	}
	// Unmeasured entries are skipped, not treated as zero slowdown.
	if got := Unfairness([]float64{0.5, 2, 0}, []float64{2, 2, 5}); !approx(got, 4) {
		t.Errorf("unfairness with unmeasured app %g, want 4", got)
	}
	if got := Unfairness([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("no valid apps: unfairness %g, want 0", got)
	}
}

func TestMaxSlowdown(t *testing.T) {
	if got := MaxSlowdown([]float64{0.5, 1}, []float64{2, 3}); !approx(got, 4) {
		t.Errorf("max slowdown %g, want 4", got)
	}
}

// TestHarmonicWeightedSpeedup pins the fairness report's HWS column to its
// formula, n / Σ slowdown.
func TestHarmonicWeightedSpeedup(t *testing.T) {
	shared := []float64{1, 1.5, 0.8}
	alone := []float64{2, 2, 1}
	wantDen := 2.0/1 + 2/1.5 + 1/0.8
	want := 3 / wantDen
	if got := Fairness(shared, alone).HWSpeedup; !approx(got, want) {
		t.Errorf("HWS %g, want %g", got, want)
	}
}

func TestFairnessReport(t *testing.T) {
	rep := Fairness([]float64{1, 0.5}, []float64{2, 2})
	if !approx(rep.Unfairness, 2) || !approx(rep.MaxSlowdown, 4) {
		t.Errorf("report UF=%g maxSD=%g, want 2 and 4", rep.Unfairness, rep.MaxSlowdown)
	}
	if !approx(rep.WSpeedup, 0.5+0.25) {
		t.Errorf("report WS=%g, want 0.75", rep.WSpeedup)
	}
	if len(rep.Slowdowns) != 2 || !approx(rep.Slowdowns[1], 4) {
		t.Errorf("report slowdowns %v", rep.Slowdowns)
	}
}
