package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	wide := []float64{70, 130, 80, 120, 90, 110, 75, 125, 100, 100}
	for _, tc := range []struct {
		name     string
		old, cur []float64
		better   string
		exact    bool
		bound    float64
		want     string
	}{
		{"faster on every pair", base, shift(base, -5), "lower", false, 0.1, "improved"},
		{"higher is better", base, shift(base, 5), "higher", false, 0.1, "improved"},
		{"within the bound", base, shift(base, 3), "lower", false, 0.1, "unchanged"},
		{"worse than the bound", base, shift(base, 15), "lower", false, 0.1, "regressed"},
		{"spread wider than the bound", wide, shift(wide, 5), "lower", false, 0.1, "unresolved"},
		{"wide spread but every new run better", wide, shift(wide, -70), "lower", false, 0.1, "improved"},
		{"gap inside the parent's spread", base, shift(base, -1), "lower", false, 0.1, "unchanged"},
		{"exact count unchanged", []float64{19, 21}, []float64{19, 21}, "lower", true, 0, "unchanged"},
		{"exact count worse in one pair", []float64{19, 21}, []float64{19, 22}, "lower", true, 0, "regressed"},
		{"exact count better in one pair", []float64{19, 21}, []float64{19, 20}, "lower", true, 0, "improved"},
		{"one run a side", []float64{19}, []float64{12}, "lower", false, 0.1, "unresolved"},
		{"too few pairs to claim", base[:5], shift(base[:5], -5), "lower", false, 0.1, "unresolved"},
		{"unbounded and worse on every pair", base, shift(base, 5), "lower", false, 0, "regressed"},
		{"unbounded and noisy", base, wide, "lower", false, 0, "unresolved"},
		{"no runs", nil, base, "lower", false, 0.1, "unresolved"},
	} {
		if got := verdict(tc.old, tc.cur, tc.better, tc.exact, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// Ties count for neither side: seven wins in ten pairs with three ties is
// not nine tenths.
func TestVerdictNeedsNineTenthsOfPairs(t *testing.T) {
	old := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	cur := []float64{9, 9, 9, 9, 9, 9, 9, 10, 10, 10}
	if got := verdict(old, cur, "lower", false, 0.5); got == "improved" {
		t.Fatalf("verdict = %s with 7/10 wins", got)
	}
	cur = []float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 10}
	if got := verdict(old, cur, "lower", false, 0.5); got != "improved" {
		t.Fatalf("verdict = %s with 9/10 wins, want improved", got)
	}
}

// writeRun writes the results.json of one run holding a single workload.
func writeRun(t *testing.T, dir string, seed uint64, time string, metrics map[string]float64) {
	t.Helper()
	res := &workloadResult{Metrics: map[string]metricValue{}}
	for name, v := range metrics {
		res.Metrics[name] = metricValue{Value: v, Samples: []float64{v}}
	}
	rf := resultsFile{
		Provenance: provenance{Seed: seed, Seconds: 25, Time: time},
		Workloads:  map[string]*workloadResult{"mix16-balanced": res},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), rf); err != nil {
		t.Fatal(err)
	}
}

// Each side is a directory of runs; the i-th runs pair up, and a run's
// value is the median it reports.
func TestCompareFilesPairsRuns(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 10; i++ {
		seed := uint64(i + 1)
		// Alternate which side ran first.
		oldT, newT := "2026-01-01T00:00:00Z", "2026-01-01T00:01:00Z"
		if i%2 == 1 {
			oldT, newT = newT, oldT
		}
		run := filepath.Join(root, "old", string(rune('a'+i)))
		writeRun(t, run, seed, oldT, map[string]float64{"run_cpu_s": 2 + 0.125*float64(i%2), "model.instr_total_m": float64(70 + i)})
		run = filepath.Join(root, "new", string(rune('a'+i)))
		writeRun(t, run, seed, newT, map[string]float64{"run_cpu_s": 1.5 + 0.125*float64(i%2), "model.instr_total_m": float64(70 + i)})
	}
	var out bytes.Buffer
	if err := compareFiles(filepath.Join(root, "old"), filepath.Join(root, "new"), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"10 pairs, old side ran first in 5\n",
		"mix16-balanced run_cpu_s old 2.0625 [2, 2.125] new 1.5625 [1.5, 1.625] s wins 10/10 improved\n",
		"mix16-balanced model.instr_total_m old 74.5 [71.75, 77.25] new 74.5 [71.75, 77.25] Minstr wins 0/10 unchanged\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "warning") {
		t.Errorf("alternating pairs drew a warning:\n%s", text)
	}

	// Paired runs must share their seed.
	writeRun(t, filepath.Join(root, "new", "c"), 99, "2026-01-01T00:00:00Z", map[string]float64{"run_cpu_s": 1.5})
	if err := compareFiles(filepath.Join(root, "old"), filepath.Join(root, "new"), &out); err == nil || !strings.Contains(err.Error(), "pair 3") {
		t.Fatalf("seed mismatch in pair 3: err = %v", err)
	}
}
