// Command perf is the simulator's performance ledger. It runs the benchmark
// workloads, checks their outputs, and prints every end-to-end and
// per-layer metric as "workload metric value unit n=samples", followed by
// one JSON summary line. See README.md.
//
//	perf [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-smoke] [-out DIR]
//	perf -compare OLD NEW
//
// Each rep runs as a child process of this binary, one at a time, so every
// rep starts from a cold process-wide scheduler and reports its own user
// CPU and peak RSS.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a process as a rep child (see childMain).
const childEnv = "PERF_REP_CHILD"

// childTimeout bounds one rep (the slowest takes about 10 s); a rep that
// takes longer is killed and counted as failed.
const childTimeout = 120 * time.Second

// tracedFactor estimates the traced pass's wall time in untraced reps (the
// wrapped rep, a reference run of the captured job, the replays); the
// untraced pass leaves that much of the run's time for it.
const tracedFactor = 2.5

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain runs one rep in this process and writes its report as JSON.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf rep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 42, "workload seed")
	smoke := fs.Bool("smoke", false, "tiny budgets")
	traced := fs.Bool("traced", false, "run the traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rep, err := runRep(w, *seed, *smoke, *traced)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	out     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 42, "workload seed (7 is the held-out confirmation seed)")
	seconds := fs.Float64("seconds", 25, "measuring time per workload")
	traceFlag := fs.Int("trace", 1, "0: untraced pass only, JSON line has end-to-end metrics; 1: also the traced pass, JSON line has per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny budgets and two reps: exercise the harness, measure nothing")
	out := fs.String("out", "out", "directory for results.json and the trace files")
	compare := fs.Bool("compare", false, "compare the runs of two commits: perf -compare OLD NEW, each a results.json or a directory of runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: perf -compare OLD NEW (each a results.json, or a directory whose subdirectories hold one results.json per run)")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "usage: perf [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-smoke] [-out DIR]")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	d := &driver{
		opts:   options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, smoke: *smoke, out: *out},
		exe:    exe,
		stderr: stderr,
		cal:    newCalKernel(),
		cpu:    firstCPU(),
	}
	results := map[string]*workloadResult{}
	for _, w := range selected {
		res := d.measure(w)
		results[w.name] = res
		printMetrics(stdout, w.name, res)
	}
	if err := d.writeOutputs(results); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return printSummary(stdout, results, d.opts.trace)
}

// repRun is one rep as the parent saw it, its times as measured. The
// metrics scale them by Speed.
type repRun struct {
	Seed     uint64    `json:"seed"`
	Report   repReport `json:"report"`
	UserCPU  float64   `json:"user_cpu_s"`
	MaxRSSMB float64   `json:"max_rss_mb"`
	Wall     float64   `json:"wall_s"`
	Traced   bool      `json:"traced"`
	Err      string    `json:"error,omitempty"`
	// CalRounds are the calibration rounds run beside the rep; Speed is
	// calRefSeconds ÷ their mean, the host's speed relative to the
	// reference host (calibrate.go).
	CalRounds []float64 `json:"cal_rounds_s"`
	Speed     float64   `json:"host_speed"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Reps      []repRun               `json:"reps"`

	spans []span
}

type driver struct {
	opts   options
	exe    string
	stderr io.Writer
	cal    *calKernel
	cpu    int // the CPU reps and calibration rounds run on
}

// measure runs untraced reps of w one at a time until the next would
// overrun the workload's time (leaving room for the traced pass), then the
// traced rep, and checks every rep's outputs.
func (d *driver) measure(w workload) *workloadResult {
	res := &workloadResult{}
	rec := newSpanRecorder()
	start := time.Now()
	var untraced []repRun
	var walls []float64
	digests := map[uint64]string{} // the first output of each rep seed
	record := func(r repRun, label string) {
		res.Attempted++
		var problems []string
		if r.Err != "" {
			problems = append(problems, r.Err)
		} else {
			problems = append(problems, r.Report.Failures...)
			if ref, ok := digests[r.Seed]; !ok {
				digests[r.Seed] = r.Report.Digest
			} else if r.Report.Digest != ref {
				problems = append(problems, "output differs from an earlier rep's with the same seed")
			}
		}
		if len(problems) > 0 {
			res.Failed++
			res.Failures = append(res.Failures, label+": "+strings.Join(problems, "; "))
			fmt.Fprintf(d.stderr, "perf: %s %s failed: %s\n", w.name, label, strings.Join(problems, "; "))
		}
		res.Reps = append(res.Reps, r)
	}
	for {
		if n := len(walls); n > 0 {
			if d.opts.smoke {
				if n == 2 {
					break
				}
			} else {
				est := median(walls)
				reserve := 0.0
				if d.opts.trace {
					reserve = tracedFactor*est + 1
				}
				if time.Since(start).Seconds()+est+reserve > d.opts.seconds || n >= 50 {
					break
				}
			}
		}
		label := fmt.Sprintf("rep %d", len(walls)+1)
		id := rec.begin(label, 0)
		r := d.spawn(w, repSeed(d.opts.seed, len(walls)), false)
		rec.end(id)
		record(r, label)
		walls = append(walls, r.Wall)
		if r.Err == "" {
			untraced = append(untraced, r)
		}
	}
	var traced *repRun
	if d.opts.trace {
		id := rec.begin("traced rep", 0)
		offset := time.Since(rec.origin).Seconds()
		r := d.spawn(w, repSeed(d.opts.seed, 0), true)
		rec.end(id)
		r.Traced = true
		record(r, "traced rep")
		if r.Err == "" && r.Report.Traced != nil {
			rec.rebase(r.Report.Traced.Spans, offset, id)
			r.Report.Traced.Spans = nil
			traced = &r
		}
	}
	res.Metrics = assemble(untraced, traced)
	res.spans = withSelfTimes(rec.list())
	return res
}

// repSeeds is how many seeds the reps of one run cycle through. The
// simulated work of a seed, and so a rep's CPU time, differs by up to ±5%
// between seeds, so every run spreads its reps over several seeds; the
// reps after the first cycle repeat a seed and must repeat its output.
const repSeeds = 4

// repSeed is the workload seed of rep k (from 0) of a run with seed seed.
// Runs with different seeds use disjoint rep seeds.
func repSeed(seed uint64, k int) uint64 { return seed*repSeeds + uint64(k%repSeeds) }

// spawn runs one rep as a child process, on workload seed seed, and waits
// for it. The child runs pinned to the driver's CPU, beside the calibration
// rounds that measure the host's speed.
func (d *driver) spawn(w workload, seed uint64, traced bool) repRun {
	args := []string{
		"-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10),
		"-smoke=" + strconv.FormatBool(d.opts.smoke),
		"-traced=" + strconv.FormatBool(traced),
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, d.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = d.stderr
	// The child dies with the thread that started it, so an interrupted
	// benchmark leaves no rep running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// The child inherits this thread's affinity.
	if old, err := setAffinity(onCPU(d.cpu)); err == nil {
		defer setAffinity(old)
	}

	t0 := time.Now()
	stopCal := d.cal.sample(d.cpu)
	err := cmd.Run()
	r := repRun{Seed: seed, Wall: time.Since(t0).Seconds(), CalRounds: stopCal()}
	r.Speed = calRefSeconds / mean(r.CalRounds)
	if ps := cmd.ProcessState; ps != nil {
		r.UserCPU = ps.UserTime().Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		r.Err = fmt.Sprintf("rep process: %v", err)
		return r
	}
	if err := json.Unmarshal(out.Bytes(), &r.Report); err != nil {
		r.Err = fmt.Sprintf("rep report: %v", err)
	}
	return r
}

// printMetrics prints one line per metric: workload, name, value, unit and
// sample count (timed chunks for replay costs).
func printMetrics(w io.Writer, name string, res *workloadResult) {
	for _, d := range metricDefs {
		mv, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s n=%d", name, d.name, formatFloat(mv.Value), mv.Unit, mv.N)
		if d.name == "sim.glue_share" && mv.Value < glueMismatch {
			line += " REPLAY-MISMATCH"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%s fail_rate %s share n=%d\n", name, formatFloat(ratio(float64(res.Failed), float64(res.Attempted))), res.Attempted)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// summary is the final stdout line.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary prints the JSON summary: the end-to-end metrics for an
// untraced run, the per-layer ones for a traced run, leaving out those only
// one workload reports. With several workloads, metric names are prefixed
// "workload/".
func printSummary(w io.Writer, results map[string]*workloadResult, traced bool) int {
	s := summary{Metrics: map[string]summaryMetric{}}
	for name, res := range results {
		s.Attempted += res.Attempted
		s.Failed += res.Failed
		for _, d := range metricDefs {
			mv, ok := res.Metrics[d.name]
			if !ok || d.e2e == traced || d.only != "" {
				continue
			}
			key := d.name
			if len(results) > 1 {
				key = name + "/" + d.name
			}
			s.Metrics[key] = summaryMetric{Value: mv.Value, Unit: mv.Unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	b, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}

// provenance records where and how a results file was measured.
type provenance struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	RepCPU     int     `json:"rep_cpu"`    // the CPU reps are pinned to
	GOMAXPROCS int     `json:"gomaxprocs"` // in the reps
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke"`
	Time       string  `json:"time"`
}

type resultsFile struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// writeOutputs writes results.json (provenance, metrics and every raw rep)
// and one trace-<workload>.json of spans per workload.
func (d *driver) writeOutputs(results map[string]*workloadResult) error {
	if err := os.MkdirAll(d.opts.out, 0o755); err != nil {
		return err
	}
	rf := resultsFile{
		Provenance: provenance{
			CPUModel:   cpuModel(),
			NProc:      runtime.NumCPU(),
			RepCPU:     d.cpu,
			GOMAXPROCS: repGOMAXPROCS(results),
			GoVersion:  runtime.Version(),
			GitHead:    gitHead(),
			Seed:       d.opts.seed,
			Seconds:    d.opts.seconds,
			Trace:      d.opts.trace,
			Smoke:      d.opts.smoke,
			Time:       time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: results,
	}
	if err := writeJSON(filepath.Join(d.opts.out, "results.json"), rf); err != nil {
		return err
	}
	for name, res := range results {
		if err := writeJSON(filepath.Join(d.opts.out, "trace-"+name+".json"), res.spans); err != nil {
			return err
		}
	}
	return nil
}

// repGOMAXPROCS returns the GOMAXPROCS a rep reported, or 0 if none did.
func repGOMAXPROCS(results map[string]*workloadResult) int {
	for _, res := range results {
		for _, r := range res.Reps {
			if r.Report.GOMAXPROCS > 0 {
				return r.Report.GOMAXPROCS
			}
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if head := strings.TrimSpace(string(out)); err == nil && head != "" {
		return head
	}
	return "unknown"
}
