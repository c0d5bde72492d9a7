package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/schedule"
	"repro/internal/sim"
	table6 "repro/internal/workload"
)

// workload is one set of inputs the benchmark runs (README.md and
// BENCHMARK.json say why each was chosen). submit performs one
// rep's simulations through sched and returns a digest of the outputs a
// user would see; a second submit on the same scheduler must be served
// entirely from its memo tier and return the same digest.
type workload struct {
	name string
	// submit runs the workload at seed; smoke selects tiny budgets that
	// exercise the same code paths in well under a second.
	submit func(sched *schedule.Scheduler, seed uint64, smoke bool) (string, error)
}

var (
	mix16Balanced = []string{
		"calc", "mcf", "libq", "gcc", "lbm", "art", "eon", "gob",
		"milc", "mesa", "STRM", "calc", "mcf", "libq", "gcc", "lbm",
	}
	mix16Streaming = []string{
		"lbm", "STRM", "libq", "milc", "lbm", "STRM", "libq", "milc",
		"lbm", "STRM", "libq", "milc", "lbm", "STRM", "libq", "milc",
	}
	mixA = []string{"calc", "mcf", "libq", "lbm"}
)

var workloads = []workload{
	{
		name:   "mix16-balanced",
		submit: jobsWorkload(mix16Balanced, 64, "tadrrip", 50_000, 200_000, false),
	},
	{
		name:   "mix16-streaming",
		submit: jobsWorkload(mix16Streaming, 64, "adapt", 100_000, 2_000_000, false),
	},
	{
		name:   "mix4-paper-sampled",
		submit: jobsWorkload(mixA, 1, "tadrrip", 2_000_000, 10_000_000, true),
	},
	{
		name:   "fig1-tiny-cold",
		submit: fig1Workload,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// jobsWorkload is a workload of one detailed simulation of names on the
// Table 3 machine with caches scaled down by scale, plus, when sampled is
// set, the same job at sampled fidelity. The sampled estimate's error
// against the detailed run is reported (sampled_ipc_err_*), not checked
// against a threshold: the documented 2% / 5% accuracy was measured on the
// 64x-scaled machine and does not hold on the unscaled one (README.md).
func jobsWorkload(names []string, scale int, llcPolicy string, warmup, measure uint64, sampled bool) func(*schedule.Scheduler, uint64, bool) (string, error) {
	return func(sched *schedule.Scheduler, seed uint64, smoke bool) (string, error) {
		cfg := sim.Scale(sim.DefaultConfig(len(names)), scale)
		cfg.LLCPolicy = llcPolicy
		cfg.Seed = seed
		cfg.PolicyOpt.Seed = seed
		wu, me := warmup, measure
		if smoke {
			wu, me = 2_000, 20_000
		}
		det := sched.Run(schedule.Job{Config: cfg, Names: names, Warmup: wu, Measure: me})
		h := sha256.New()
		fmt.Fprint(h, det.Fingerprint())
		if !sampled {
			return hex.EncodeToString(h.Sum(nil)), nil
		}
		cfg.Sample = sim.DefaultSample()
		smp := sched.Run(schedule.Job{Config: cfg, Names: names, Warmup: wu, Measure: me})
		for i, a := range smp.Apps {
			if a.Sampled.Windows != cfg.Sample.Windows || !(a.IPC > 0) {
				return "", fmt.Errorf("sampled run, app %d: %d windows and IPC %g, want %d windows and a positive IPC",
					i, a.Sampled.Windows, a.IPC, cfg.Sample.Windows)
			}
		}
		fmt.Fprint(h, smp.Fingerprint())
		return hex.EncodeToString(h.Sum(nil)), nil
	}
}

// fig1MixSeed draws the Figure 1 workload's mix: paperfig's default seed.
const fig1MixSeed = 42

// fig1Workload is experiments.Fig1 at Tiny fidelity with one harness
// worker, restricted to the first 16-core mix so that several reps fit in
// one run; the digest covers the three tables paperfig prints. The mix is
// fixed and seed drives only the simulations: the applications a seed's
// mix draws change a rep's CPU cost by up to a factor of two, which would
// swamp any change between commits.
func fig1Workload(_ *schedule.Scheduler, seed uint64, smoke bool) (string, error) {
	opt := experiments.Tiny()
	opt.Parallelism = 1
	opt.Seed = seed
	if smoke {
		opt.WarmupInstr, opt.MeasureInstr = 2_000, 10_000
	}
	study, err := table6.StudyByCores(16)
	if err != nil {
		return "", err
	}
	mixes := table6.Mixes(study, fig1MixSeed)[:1]
	pols := []experiments.PolicySpec{
		experiments.Baseline,
		{Key: "TA-DRRIP(SD=128)", Policy: "tadrrip-sd128"},
		experiments.ForcedSpec(),
	}
	runs := experiments.NewRunner(opt).RunStudyMixes(study, mixes, study.Name, pols)
	res := experiments.Fig1Result{
		Runs:          runs,
		SpeedupSD128:  metrics.AMean(runs.SpeedupsOver(experiments.Baseline.Key, pols[1].Key)),
		SpeedupForced: metrics.AMean(runs.SpeedupsOver(experiments.Baseline.Key, pols[2].Key)),
	}
	h := sha256.New()
	for _, t := range []experiments.Table{res.TableA(), res.TableB(), res.TableC()} {
		fmt.Fprint(h, t.String())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
