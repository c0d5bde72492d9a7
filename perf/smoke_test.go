package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// driver spawns a rep child, so the smoke test covers the real process
// harness.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at tiny budgets, untraced and traced, and
// checks that each prints every metric and passes its output checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if !s.Correct || s.Failed != 0 || s.Attempted != 3*len(workloads) {
		t.Fatalf("summary correct=%v failed=%d attempted=%d\n%s", s.Correct, s.Failed, s.Attempted, stderr.String())
	}

	printed := map[string]bool{}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) < 5 || !strings.HasPrefix(f[4], "n=") {
			t.Fatalf("malformed metric line %q", line)
		}
		printed[f[0]+" "+f[1]] = true
	}
	for _, w := range workloads {
		for _, d := range metricDefs {
			if d.only != "" && d.only != w.name {
				if printed[w.name+" "+d.name] {
					t.Errorf("%s: metric %s of %s printed", w.name, d.name, d.only)
				}
				continue
			}
			if !printed[w.name+" "+d.name] {
				t.Errorf("%s: metric %s not printed", w.name, d.name)
			}
			if key := w.name + "/" + d.name; !d.e2e && d.only == "" {
				if _, ok := s.Metrics[key]; !ok {
					t.Errorf("summary lacks %s", key)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Error(err)
		}
	}
	rf, err := readResults(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rf.Provenance.NProc == 0 || rf.Provenance.GoVersion == "" || len(rf.Workloads) != len(workloads) {
		t.Errorf("results.json provenance %+v, %d workloads", rf.Provenance, len(rf.Workloads))
	}
}

// BENCHMARK.json must describe exactly the workloads and the metrics every
// workload reports, with every end-to-end bound in (0, 0.25].
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []benchMetric           `json:"end_to_end"`
		PerLayer  []benchMetric           `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	var e2e, layer []metricDef
	for _, d := range metricDefs {
		if d.only != "" {
			continue
		}
		if d.e2e {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	check := func(kind string, defs []metricDef, listed []benchMetric) {
		if len(defs) != len(listed) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", e2e, bf.EndToEnd)
	check("per_layer", layer, bf.PerLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
