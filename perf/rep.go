package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/trace"
)

// repReport is what one rep child sends its parent: raw measurements and
// the outputs the parent checks. CPU times measured inside the child use
// the process CPU clock (user plus system, nanosecond resolution); the
// parent takes the rep's user CPU and peak RSS from the child's exit
// status.
type repReport struct {
	Digest     string   `json:"digest"`
	Failures   []string `json:"failures,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs"`

	RepCPU    float64 `json:"rep_cpu_s"`    // the cold pass
	SetupS    float64 `json:"setup_s"`      // median of setupRepeats constructions, summed over jobs
	JobSetupS float64 `json:"job_setup_s"`  // the cold pass's constructions, summed over jobs
	JobRunS   float64 `json:"job_run_s"`    // System.Run, summed over jobs
	WarmMs    float64 `json:"warm_ms"`      // the warm re-run, wall time
	AllocMB   float64 `json:"alloc_mb"`     // heap allocated by the cold pass
	GCs       uint32  `json:"gc_cycles"`    // GC cycles during the cold pass
	Instr     uint64  `json:"instr"`        // every simulated instruction
	DetInst   uint64  `json:"det_instr"`    // instructions of detailed jobs
	DetRunS   float64 `json:"det_run_s"`    // System.Run CPU of detailed jobs
	Exec      uint64  `json:"executed"`     // scheduler executions, cold pass
	MemHits   uint64  `json:"mem_hits"`     // scheduler memo hits, cold plus warm pass
	Budget    uint64  `json:"budget_instr"` // Σ cores × (warm-up + measure) over jobs

	Model   map[string]float64 `json:"model"`
	Sampled map[string]float64 `json:"sampled,omitempty"` // sampled_* metrics, when the rep ran a sampled job

	Traced *tracedReport `json:"traced,omitempty"`
}

// jobRecord is one executed scheduler job as the recorder saw it.
type jobRecord struct {
	cfg      sim.Config
	names    []string
	warmup   uint64
	measure  uint64
	res      sim.Result
	gens     []*countingGen
	setup    time.Duration
	run      time.Duration
	captured bool
}

// recorder is the scheduler's run function for a rep: it executes a job as
// schedule.Job.run does (generators of sim.NewFromNames, sim.New, Run),
// through counting generator wrappers, timing construction and Run. With
// spans set it is the traced pass: every wrapper times NextBatch, and the
// first detailed multi-core job also captures capture ops of each core's
// stream for the layer replays.
type recorder struct {
	spans  *spanRecorder
	parent int

	mu        sync.Mutex
	jobs      []*jobRecord
	captureOK bool // the next detailed multi-core job is captured
}

func (r *recorder) run(j schedule.Job) sim.Result {
	jr := &jobRecord{cfg: j.Config, names: j.Names, warmup: j.Warmup, measure: j.Measure}
	r.mu.Lock()
	if r.captureOK && j.Config.Cores > 1 && !j.Config.Sample.Enabled() {
		jr.captured = true
		r.captureOK = false
	}
	r.jobs = append(r.jobs, jr)
	r.mu.Unlock()
	perCore := 0
	if jr.captured {
		perCore = captureOps / j.Config.Cores
	}

	label := fmt.Sprintf("job %d-core %s", j.Config.Cores, j.Config.LLCPolicy)
	if j.Config.Sample.Enabled() {
		label += " sampled"
	}
	jobSpan := r.spans.begin(label, r.parent)
	defer r.spans.end(jobSpan)

	c0 := processCPU()
	id := r.spans.begin("construct", jobSpan)
	var sys *sim.System
	sys, jr.gens = construct(j.Config, j.Names, r.spans != nil, perCore)
	r.spans.end(id)
	c1 := processCPU()
	id = r.spans.begin("run", jobSpan)
	jr.res = sys.Run(j.Warmup, j.Measure)
	r.spans.end(id)
	jr.setup, jr.run = c1-c0, processCPU()-c1
	return jr.res
}

// construct builds a job's system as sim.NewFromNames does, from counting
// wrappers around the generators; timed and capture configure the wrappers.
func construct(cfg sim.Config, names []string, timed bool, capture int) (*sim.System, []*countingGen) {
	gens := specGenerators(cfg, names)
	list := make([]trace.Generator, len(gens))
	counted := make([]*countingGen, len(gens))
	for i, g := range gens {
		counted[i] = &countingGen{g: g, timed: timed, capture: capture}
		list[i] = counted[i]
	}
	return sim.New(cfg, list), counted
}

// setupRepeats is how many times an untraced rep constructs each of its
// jobs again for setup_s. One construction takes well under a millisecond
// on the scaled machines, so a single cold one is mostly noise.
const setupRepeats = 15

// setupTime constructs every job setupRepeats times and returns the sum over
// jobs of each job's median construction CPU.
func setupTime(jobs []*jobRecord) float64 {
	var total float64
	times := make([]float64, setupRepeats)
	for _, jr := range jobs {
		for k := range times {
			// Each construction starts from a collected heap, so the
			// discarded systems neither slow the next one nor raise the
			// process's peak RSS.
			runtime.GC()
			c0 := processCPU()
			construct(jr.cfg, jr.names, false, 0)
			times[k] = (processCPU() - c0).Seconds()
		}
		total += median(times)
	}
	return total
}

// captureOps is the traced pass's total stream capture across the cores of
// the captured job (32 B per op).
const captureOps = 1 << 19

// runRep runs one rep of w in this process: the cold pass on a fresh
// process-wide scheduler with a pool of one, a warm re-run that must be
// served from the memo tier, and, when traced, the traced pass's extra
// checks and layer replays. A panic anywhere is returned as an error.
func runRep(w workload, seed uint64, smoke, traced bool) (rep repReport, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	sched := schedule.Shared()
	sched.SetPoolSize(1)
	rec := &recorder{}
	if traced {
		rec.spans = newSpanRecorder()
		rec.captureOK = true
	}
	sched.SetRunFn(rec.run)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st0 := sched.Stats()
	rec.parent = rec.spans.begin("rep", 0)
	c0 := processCPU()
	rep.Digest, err = w.submit(sched, seed, smoke)
	rep.RepCPU = (processCPU() - c0).Seconds()
	rec.spans.end(rec.parent)
	if err != nil {
		return rep, err
	}
	runtime.ReadMemStats(&m1)
	st1 := sched.Stats()
	rep.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	rep.GCs = m1.NumGC - m0.NumGC

	warmSpan := rec.spans.begin("warm rerun", 0)
	t0 := time.Now()
	warm, err := w.submit(sched, seed, smoke)
	rep.WarmMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	rec.spans.end(warmSpan)
	if err != nil {
		return rep, err
	}
	st2 := sched.Stats()
	if warm != rep.Digest {
		rep.Failures = append(rep.Failures, "warm re-run output differs from the cold run")
	}
	if st2.Executed != st1.Executed {
		rep.Failures = append(rep.Failures, fmt.Sprintf("warm re-run executed %d jobs, want 0", st2.Executed-st1.Executed))
	}
	rep.Exec = st1.Executed - st0.Executed
	rep.MemHits = st2.MemHits - st0.MemHits

	for _, jr := range rec.jobs {
		rep.JobSetupS += jr.setup.Seconds()
		rep.JobRunS += jr.run.Seconds()
		var instr uint64
		for _, g := range jr.gens {
			instr += g.instr
		}
		rep.Instr += instr
		rep.Budget += uint64(jr.cfg.Cores) * (jr.warmup + jr.measure)
		if !jr.cfg.Sample.Enabled() {
			rep.DetInst += instr
			rep.DetRunS += jr.run.Seconds()
		}
	}
	rep.Model = modelMetrics(rec.jobs, rep)
	rep.Sampled = sampledMetrics(rec.jobs)
	if traced {
		rep.Traced, err = tracedPass(rec, rep, smoke)
		if err != nil {
			return rep, err
		}
		rep.Failures = append(rep.Failures, rep.Traced.Failures...)
	} else {
		rep.SetupS = setupTime(rec.jobs)
	}
	return rep, nil
}

// primaryJob is the first detailed multi-core job a rep executed: the job
// whose simulated statistics the model metrics report.
func primaryJob(jobs []*jobRecord) *jobRecord {
	for _, jr := range jobs {
		if jr.cfg.Cores > 1 && !jr.cfg.Sample.Enabled() {
			return jr
		}
	}
	return nil
}

// sampledMetrics compares a rep's sampled job with its detailed primary job:
// the speed-up in Run CPU and the sampled estimate's per-app IPC error. It
// returns nil for a rep that ran no sampled job.
func sampledMetrics(jobs []*jobRecord) map[string]float64 {
	det := primaryJob(jobs)
	if det == nil {
		return nil
	}
	for _, smp := range jobs {
		if !smp.cfg.Sample.Enabled() {
			continue
		}
		mean, worst := sampledError(det.res, smp.res)
		return map[string]float64{
			"sampled_speedup":           ratio(det.run.Seconds(), smp.run.Seconds()),
			"sampled_ipc_err_mean_pct":  mean,
			"sampled_ipc_err_worst_pct": worst,
		}
	}
	return nil
}

// modelMetrics are the simulated (not host) statistics of a rep. They are
// exact: a change that only speeds the simulator up leaves every one
// identical.
func modelMetrics(jobs []*jobRecord, rep repReport) map[string]float64 {
	m := map[string]float64{
		"model.instr_total_m": float64(rep.Instr) / 1e6,
	}
	if rep.Instr > 0 {
		m["model.reexec_share"] = 1 - float64(rep.Budget)/float64(rep.Instr)
	}
	jr := primaryJob(jobs)
	if jr == nil {
		return m
	}
	var ipc, instr, acc, miss, byp, waitSum, waits float64
	for _, a := range jr.res.Apps {
		ipc += a.IPC
		instr += float64(a.Instructions)
		acc += float64(a.LLCDemandAccesses)
		miss += float64(a.LLCDemandMisses)
		byp += float64(a.LLCBypasses)
		n := float64(a.ArbiterWaitHist.Total())
		waitSum += a.ArbiterMeanWait * n
		waits += n
	}
	m["model.ipc_mean"] = ipc / float64(len(jr.res.Apps))
	m["model.l2_mpki"] = ratio(1000*acc, instr)
	m["model.llc_mpki"] = ratio(1000*miss, instr)
	m["model.llc_bypass_share"] = ratio(byp, miss)
	m["model.arbiter_wait_cycles"] = ratio(waitSum, waits)
	m["model.dram_row_hit_rate"] = jr.res.DRAMRowHitRate
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sampledError returns the mean and worst per-app relative IPC error of a
// sampled run against its detailed reference, in percent.
func sampledError(det, smp sim.Result) (mean, worst float64) {
	for i := range det.Apps {
		d := det.Apps[i].IPC
		if d <= 0 {
			continue
		}
		e := 100 * math.Abs(smp.Apps[i].IPC-d) / d
		mean += e
		worst = math.Max(worst, e)
	}
	return mean / float64(len(det.Apps)), worst
}
