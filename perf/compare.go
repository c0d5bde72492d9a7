package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchMetric is one metric's entry in BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// loadBench reads BENCHMARK.json from the current directory or its parent
// (the repository root when run in perf/).
func loadBench() (map[string]benchMetric, error) {
	var b []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	out := map[string]benchMetric{}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("parse %s: %w", path, err)
	}
	return rf, nil
}

// loadRuns reads one side of a comparison: a results.json file, or a
// directory whose subdirectories each hold the results.json of one run,
// taken in name order.
func loadRuns(path string) ([]resultsFile, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*", "results.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no */results.json", path)
	}
	runs := make([]resultsFile, len(files))
	for i, f := range files {
		if runs[i], err = readResults(f); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// compareFiles compares the runs of an old and a new commit, paired by
// their order: the i-th old run with the i-th new one, which must share the
// seed and settings. For every workload and metric that every run reports
// it prints, over the runs' values, each side's median and quartiles, the
// pairs the new side won, and a verdict.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	bench, err := loadBench()
	if err != nil {
		return err
	}
	old, err := loadRuns(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadRuns(newPath)
	if err != nil {
		return err
	}
	if len(old) != len(cur) {
		return fmt.Errorf("%d old runs but %d new runs: runs are compared in pairs", len(old), len(cur))
	}
	oldFirst := 0
	for i := range old {
		o, n := old[i].Provenance, cur[i].Provenance
		if o.Seed != n.Seed || o.Seconds != n.Seconds || o.Smoke != n.Smoke {
			return fmt.Errorf("pair %d: old run (seed %d, %gs, smoke %v) and new run (seed %d, %gs, smoke %v) differ in settings",
				i+1, o.Seed, o.Seconds, o.Smoke, n.Seed, n.Seconds, n.Smoke)
		}
		if o.Time < n.Time {
			oldFirst++
		}
	}
	fmt.Fprintf(w, "old: %s (%s)\nnew: %s (%s)\n%d pairs, old side ran first in %d\n",
		oldPath, old[0].Provenance.GitHead, newPath, cur[0].Provenance.GitHead, len(old), oldFirst)
	if len(old) > 1 && (oldFirst == 0 || oldFirst == len(old)) {
		fmt.Fprintln(w, "warning: one side ran first in every pair; alternate the order so that drift in the host's speed cancels")
	}

	for _, name := range workloadNames(old, cur) {
		for _, d := range metricDefs {
			ov, ok1 := runValues(old, name, d.name)
			nv, ok2 := runValues(cur, name, d.name)
			if !ok1 || !ok2 {
				continue
			}
			bound := d.bound
			if bm, ok := bench[d.name]; ok {
				bound = bm.Bound
			}
			oq1, omed, oq3 := quartiles(ov)
			nq1, nmed, nq3 := quartiles(nv)
			fmt.Fprintf(w, "%s %s old %s [%s, %s] new %s [%s, %s] %s wins %d/%d %s\n", name, d.name,
				formatFloat(omed), formatFloat(oq1), formatFloat(oq3),
				formatFloat(nmed), formatFloat(nq1), formatFloat(nq3),
				d.unit, pairWins(ov, nv, d.better), len(ov), verdict(ov, nv, d.better, d.exact, bound))
		}
	}
	return nil
}

// workloadNames lists, sorted, the workloads every run on both sides holds.
func workloadNames(old, cur []resultsFile) []string {
	var names []string
	for name := range old[0].Workloads {
		all := true
		for _, side := range [][]resultsFile{old, cur} {
			for _, rf := range side {
				if _, ok := rf.Workloads[name]; !ok {
					all = false
				}
			}
		}
		if all {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// runValues returns each run's value of metric on workload, which every
// run holds, in run order, and whether every run reports the metric.
func runValues(runs []resultsFile, workload, metric string) ([]float64, bool) {
	out := make([]float64, len(runs))
	for i, rf := range runs {
		mv, ok := rf.Workloads[workload].Metrics[metric]
		if !ok {
			return nil, false
		}
		out[i] = mv.Value
	}
	return out, true
}

// minPairs is the fewest pairs a timing verdict other than unresolved
// rests on.
const minPairs = 10

// pairWins counts the pairs in which cur beats old; ties count for neither.
func pairWins(old, cur []float64, better string) int {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	wins := 0
	for i := range old {
		if sign*(cur[i]-old[i]) > 0 {
			wins++
		}
	}
	return wins
}

// verdict classifies a change from the old runs' values to the new runs'
// values of one metric, paired by index:
//
//   - an exact metric is unchanged when every pair agrees, improved when
//     every pair that differs is better, and regressed otherwise;
//   - a timing with fewer than minPairs pairs is unresolved;
//   - improved: the new side wins at least nine tenths of the pairs (ties
//     count for neither) and its median beats the old one by more than the
//     old side's interquartile range;
//   - for a metric with a bound: unresolved when the old side's
//     interquartile range exceeds the bound, unless every new value beats
//     every old one; regressed when the new median is worse than the old
//     one by more than the bound; otherwise unchanged;
//   - for a metric without a bound: regressed by the mirror of the
//     improvement rule, otherwise unresolved.
func verdict(old, cur []float64, better string, exact bool, bound float64) string {
	pairs := min(len(old), len(cur))
	if pairs == 0 {
		return "unresolved"
	}
	old, cur = old[:pairs], cur[:pairs]
	wins, losses := pairWins(old, cur, better), pairWins(cur, old, better)
	if exact {
		switch {
		case wins == 0 && losses == 0:
			return "unchanged"
		case losses == 0:
			return "improved"
		}
		return "regressed"
	}
	if pairs < minPairs {
		return "unresolved"
	}
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	mo := median(old)
	gain := sign * (median(cur) - mo)
	q1, _, q3 := quartiles(old)
	iqr := q3 - q1
	clear := func(n int) bool { return 10*n >= 9*pairs }
	switch {
	case clear(wins) && gain > iqr:
		return "improved"
	case bound == 0 && clear(losses) && -gain > iqr:
		return "regressed"
	case bound == 0:
		return "unresolved"
	case iqr > bound*math.Abs(mo) && !allBetter(old, cur, sign):
		return "unresolved"
	case -gain > bound*math.Abs(mo):
		return "regressed"
	}
	return "unchanged"
}

// allBetter reports whether every cur value beats every old value.
func allBetter(old, cur []float64, sign float64) bool {
	so, sc := sorted(old), sorted(cur)
	if sign > 0 {
		return sc[0] > so[len(so)-1]
	}
	return sc[len(sc)-1] < so[0]
}
