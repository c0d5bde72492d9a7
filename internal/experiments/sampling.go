package experiments

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SamplingAppRow is one application's detailed-vs-sampled comparison.
type SamplingAppRow struct {
	Mix string
	App string
	// DetailedIPC is the fully-detailed reference.
	DetailedIPC float64
	// SampledIPC is the sampled-fidelity estimate, with its 95% confidence
	// half-width and coefficient of variation from the per-window samples.
	SampledIPC float64
	IPCCI      float64
	IPCCV      float64
	// ErrPct is 100·|sampled−detailed|/detailed.
	ErrPct float64
	// LLCErrPct is the same relative error for LLC MPKI (absolute error in
	// MPKI when the detailed reference is zero-miss).
	LLCErrPct float64
}

// SamplingResult carries the sampled-fidelity validation study: every
// application of the study's mixes measured twice — fully detailed and
// sampled — under identical budgets, policy and seed.
type SamplingResult struct {
	Sample sim.SampleConfig
	Rows   []SamplingAppRow
	// MeanErrPct / WorstErrPct summarize the per-app IPC errors.
	MeanErrPct  float64
	WorstErrPct float64
	// MeanCV is the mean per-window coefficient of variation — the
	// SMARTS-style convergence diagnostic (high CV means the window count
	// is too low for this mix).
	MeanCV float64
}

// SamplingValidation runs the sampled-fidelity estimator head-to-head
// against the fully-detailed engine on the 4-core study and reports per-app
// IPC error with confidence intervals. The detailed leg is the same
// (config, mix, budget) job every other harness runs, so it deduplicates
// through the scheduler; the sampled leg fingerprints differently (the
// sampling axis is part of the Config digest) and simulates fresh.
func SamplingValidation(opt Options) SamplingResult {
	sample := opt.Sample
	if !sample.Enabled() {
		sample = sim.DefaultSample()
	}
	r := NewRunner(opt)
	study, err := workload.StudyByCores(4)
	if err != nil {
		panic(err)
	}
	mixes := r.Opt.mixes(study)

	type legKey struct {
		mix     int
		sampled bool
	}
	results := make(map[legKey]sim.Result, 2*len(mixes))
	type legJob struct {
		key legKey
		cfg sim.Config
	}
	var jobs []legJob
	for mi := range mixes {
		detailed := r.Opt.baseConfig(study.Cores)
		detailed.Sample = sim.SampleConfig{}
		detailed.LLCPolicy = Baseline.Policy
		sampledCfg := detailed
		sampledCfg.Sample = sample
		jobs = append(jobs,
			legJob{legKey{mi, false}, detailed},
			legJob{legKey{mi, true}, sampledCfg})
	}
	resCh := make([]sim.Result, len(jobs))
	r.Opt.forEach(len(jobs), func(i int) {
		resCh[i] = r.sched.Run(schedule.Job{
			Config:  jobs[i].cfg,
			Names:   mixes[jobs[i].key.mix].Names,
			Warmup:  r.Opt.WarmupInstr,
			Measure: r.Opt.MeasureInstr,
			Segment: study.Name,
		})
	})
	for i, j := range jobs {
		results[j.key] = resCh[i]
	}

	out := SamplingResult{Sample: sample}
	var errs, cvs []float64
	for mi, mix := range mixes {
		det := results[legKey{mi, false}]
		smp := results[legKey{mi, true}]
		for ai, name := range mix.Names {
			d, s := det.Apps[ai], smp.Apps[ai]
			row := SamplingAppRow{
				Mix:         fmt.Sprintf("mix%02d", mi),
				App:         name,
				DetailedIPC: d.IPC,
				SampledIPC:  s.IPC,
				IPCCI:       s.Sampled.IPCCI,
				IPCCV:       s.Sampled.IPCCV,
			}
			if d.IPC > 0 {
				row.ErrPct = 100 * math.Abs(s.IPC-d.IPC) / d.IPC
			}
			if d.LLCMPKI > 0 {
				row.LLCErrPct = 100 * math.Abs(s.LLCMPKI-d.LLCMPKI) / d.LLCMPKI
			} else {
				row.LLCErrPct = 100 * math.Abs(s.LLCMPKI-d.LLCMPKI)
			}
			errs = append(errs, row.ErrPct)
			cvs = append(cvs, row.IPCCV)
			if row.ErrPct > out.WorstErrPct {
				out.WorstErrPct = row.ErrPct
			}
			out.Rows = append(out.Rows, row)
		}
	}
	out.MeanErrPct = metrics.AMean(errs)
	out.MeanCV = metrics.AMean(cvs)
	return out
}

// Table renders the validation study with its summary line in the note.
func (s SamplingResult) Table() Table {
	t := Table{
		Title: "Sampling validation — sampled vs detailed per-app IPC (4-core)",
		Note: fmt.Sprintf(
			"windows=%d detail=%d warm=%d quantum=%d (0 = budget-derived); mean |IPC err| %.2f%%, worst %.2f%%, mean CV %.3f",
			s.Sample.Windows, s.Sample.DetailInstr, s.Sample.WarmInstr, sim.SampleQuantum,
			s.MeanErrPct, s.WorstErrPct, s.MeanCV),
		Header: []string{"mix", "app", "detailed IPC", "sampled IPC", "±95% CI", "CV", "|err|%", "LLC MPKI err%"},
	}
	for _, r := range s.Rows {
		t.Rows = append(t.Rows, []string{
			r.Mix, r.App, f3(r.DetailedIPC), f3(r.SampledIPC),
			f3(r.IPCCI), f3(r.IPCCV), f2(r.ErrPct), f2(r.LLCErrPct),
		})
	}
	return t
}
