// Package experiments regenerates every table and figure of the paper's
// evaluation (Figures 1, 3, 4, 5, 6, 7, 8; Tables 2, 4, 7) plus the design
// ablations of §3.1/§3.2, on top of the internal/sim machine. Each harness
// returns structured results and can render itself as text; cmd/paperfig
// and bench_test.go are thin wrappers around this package.
package experiments

import (
	"runtime"
	"sync"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options scales an experiment between "paper" fidelity and test speed.
type Options struct {
	// Scale divides every cache's set count (1 = the paper's 16MB LLC).
	Scale int
	// MaxWorkloads caps the number of workload mixes per study (0 = the
	// paper's full Table 6 counts).
	MaxWorkloads int
	// WarmupInstr / MeasureInstr are per-application instruction budgets.
	WarmupInstr  uint64
	MeasureInstr uint64
	// Seed drives workload generation and all policy sampling.
	Seed uint64
	// Parallelism caps how many simulations one harness holds in flight
	// at the shared scheduler (0 = GOMAXPROCS). The scheduler's own pool,
	// GOMAXPROCS wide, bounds how many execute at once.
	Parallelism int
	// Sample switches every machine this harness builds to sampled
	// fidelity (sim.Config.Sample): alternating detailed windows and
	// functionally-warmed gaps. This changes results — it trades
	// measurement coverage for speed — so it is part of the memoization
	// key (via the Config fingerprint) and sampled runs never alias
	// detailed cache entries. The zero value keeps the fully-detailed
	// engine.
	Sample sim.SampleConfig
}

// Paper returns full-fidelity options (hours of CPU time; used by
// cmd/paperfig -full).
func Paper() Options {
	return Options{Scale: 1, WarmupInstr: 2_000_000, MeasureInstr: 10_000_000, Seed: 42}
}

// Quick returns the default options of cmd/paperfig: 64x-scaled caches
// (256KB LLC) and reduced instruction budgets — minutes, not hours, with
// the same shapes. The scale/budget pairing matters: a thrashing
// application needs roughly 24 x LLC-sets of its own accesses before its
// footprint is observable, so smaller caches need proportionally less
// instruction budget to classify correctly.
func Quick() Options {
	return Options{
		Scale:        64,
		MaxWorkloads: 20,
		WarmupInstr:  200_000,
		MeasureInstr: 800_000,
		Seed:         42,
	}
}

// Tiny returns options small enough for unit tests and testing.B benches.
func Tiny() Options {
	return Options{
		Scale:        64,
		MaxWorkloads: 3,
		WarmupInstr:  60_000,
		MeasureInstr: 250_000,
		Seed:         42,
	}
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(i) for i in [0, n) with at most workers() concurrent
// submissions. Execution itself is bounded (and deduplicated) by the
// scheduler's pool; this only caps how many jobs a single harness holds
// in flight, honouring Options.Parallelism.
func (o Options) forEach(n int, fn func(i int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < o.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// baseConfig builds the machine for a core count under these options.
func (o Options) baseConfig(cores int) sim.Config {
	cfg := sim.Scale(sim.DefaultConfig(cores), o.Scale)
	cfg.Seed = o.Seed
	cfg.PolicyOpt.Seed = o.Seed
	cfg.Sample = o.Sample
	return cfg
}

// mixes returns the study's workload list under these options.
func (o Options) mixes(study workload.Study) []workload.Mix {
	ms := workload.Mixes(study, o.Seed)
	if o.MaxWorkloads > 0 && len(ms) > o.MaxWorkloads {
		ms = ms[:o.MaxWorkloads]
	}
	return ms
}

// PolicySpec names one LLC policy configuration under test.
type PolicySpec struct {
	// Key is the display name ("ADAPT_bp32", "TA-DRRIP(forced)").
	Key string
	// Policy is the registry name.
	Policy string
	// Configure optionally adjusts the machine per mix (e.g. the forced-
	// BRRIP oracle needs the mix's thrashing core mask).
	Configure func(cfg *sim.Config, names []string)
}

// Baseline is the paper's baseline policy.
var Baseline = PolicySpec{Key: "TA-DRRIP", Policy: "tadrrip"}

// ForcedSpec returns the Figure 1 oracle: TA-DRRIP with thrashing
// applications forced to BRRIP.
func ForcedSpec() PolicySpec {
	return PolicySpec{
		Key:    "TA-DRRIP(forced)",
		Policy: "tadrrip",
		Configure: func(cfg *sim.Config, names []string) {
			forced := make([]bool, len(names))
			for i, n := range names {
				forced[i] = bench.MustByName(n).Thrashing()
			}
			cfg.PolicyOpt.ForcedBRRIP = forced
		},
	}
}

// ComparisonSpecs are the five curves of Figures 3 and 8, in the paper's
// legend order.
func ComparisonSpecs() []PolicySpec {
	return []PolicySpec{
		{Key: "ADAPT_bp32", Policy: "adapt"},
		{Key: "LRU", Policy: "lru"},
		{Key: "SHiP", Policy: "ship"},
		{Key: "EAF", Policy: "eaf"},
		{Key: "ADAPT_ins", Policy: "adapt-ins"},
	}
}

// MixRun is one (workload, policy) simulation outcome.
type MixRun struct {
	Mix    workload.Mix
	Result sim.Result
}

// StudyRuns holds every policy's runs over one study's mixes, plus the
// solo-mode IPC of each application for weighted-speedup denominators.
type StudyRuns struct {
	Study    workload.Study
	Mixes    []workload.Mix
	ByPolicy map[string][]MixRun // key -> per-mix results, mix order
	Alone    map[string]float64  // benchmark name -> solo IPC
}

// Runner routes a harness's simulations through a schedule.Scheduler. The
// scheduler memoizes by content-addressed job key, so repeated grids — the
// TA-DRRIP baseline every figure shares, solo-IPC denominators, overlapping
// ablation sweeps — simulate once per process (and once per machine when a
// disk cache is configured).
type Runner struct {
	Opt   Options
	sched *schedule.Scheduler
}

// NewRunner builds a Runner on the process-wide shared scheduler, which is
// what gives independent harnesses (Fig1, Fig3, Table 7, ...) cross-harness
// result reuse.
func NewRunner(opt Options) *Runner {
	return NewRunnerWith(opt, schedule.Shared())
}

// NewRunnerWith builds a Runner on a specific scheduler (tests use private
// schedulers to observe hit counters in isolation).
func NewRunnerWith(opt Options, s *schedule.Scheduler) *Runner {
	return &Runner{Opt: opt, sched: s}
}

// Scheduler exposes the runner's scheduler (for stats and cache control).
func (r *Runner) Scheduler() *schedule.Scheduler { return r.sched }

// soloConfig is the 1-core machine used for solo baselines. It depends only
// on the options (not the study's core count), so solo runs deduplicate
// across studies of different widths.
func (o Options) soloConfig() sim.Config {
	cfg := o.baseConfig(1)
	cfg.Arb = sim.DefaultConfig(1).Arb
	return cfg
}

// AloneIPC returns a benchmark's solo IPC on the options' machine with the
// baseline policy. Memoization lives in the scheduler: every repeat — in
// this harness or any other sharing the scheduler — is a cache hit.
func (r *Runner) AloneIPC(name string) float64 {
	res := r.sched.Run(schedule.Job{
		Config:  r.Opt.soloConfig(),
		Names:   []string{name},
		Warmup:  r.Opt.WarmupInstr,
		Measure: r.Opt.MeasureInstr,
		Segment: "solo",
	})
	return res.Apps[0].IPC
}

// RunStudy simulates every (mix, policy) pair of a study and collects solo
// baselines for each benchmark that appears. Each pair becomes a scheduler
// job keyed by its fully-configured machine, so identical pairs requested
// by other harnesses (or earlier runs against a disk cache) are not
// re-simulated. The solo-IPC baselines are submitted through the same
// fan-out as the (mix, policy) grid rather than trailing it sequentially,
// so they overlap the grid's longest simulations instead of serialising
// after them. Options.Parallelism bounds this harness's in-flight
// submissions; the scheduler's pool bounds the process.
func (r *Runner) RunStudy(study workload.Study, pols []PolicySpec) StudyRuns {
	return r.RunStudyMixes(study, r.Opt.mixes(study), study.Name, pols)
}

// RunStudyMixes is RunStudy over an explicit mix list with an explicit
// disk-cache segment label. It exists so harnesses can run *variants* of a
// study's mixes — the burst-traffic comparison maps every benchmark name to
// its "+burst" twin and labels the segment accordingly — while sharing all
// of RunStudy's dedup and fan-out machinery.
func (r *Runner) RunStudyMixes(study workload.Study, mixes []workload.Mix, segment string, pols []PolicySpec) StudyRuns {
	out := StudyRuns{
		Study:    study,
		Mixes:    mixes,
		ByPolicy: map[string][]MixRun{},
		Alone:    map[string]float64{},
	}
	for _, p := range pols {
		out.ByPolicy[p.Key] = make([]MixRun, len(mixes))
	}

	// Unique benchmark names, first-appearance order.
	var names []string
	seen := map[string]bool{}
	for _, m := range mixes {
		for _, n := range m.Names {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}

	grid := len(mixes) * len(pols)
	alone := make([]float64, len(names))
	r.Opt.forEach(grid+len(names), func(i int) {
		if i >= grid {
			alone[i-grid] = r.AloneIPC(names[i-grid])
			return
		}
		mi, pi := i/len(pols), i%len(pols)
		mix := mixes[mi]
		p := pols[pi]
		cfg := r.Opt.baseConfig(study.Cores)
		cfg.LLCPolicy = p.Policy
		if p.Configure != nil {
			p.Configure(&cfg, mix.Names)
		}
		res := r.sched.Run(schedule.Job{
			Config:  cfg,
			Names:   mix.Names,
			Warmup:  r.Opt.WarmupInstr,
			Measure: r.Opt.MeasureInstr,
			Segment: segment,
		})
		out.ByPolicy[p.Key][mi] = MixRun{Mix: mix, Result: res}
	})
	for i, n := range names {
		out.Alone[n] = alone[i]
	}
	return out
}

// PerWorkload converts one policy's study runs into the metrics package's
// shape.
func (s StudyRuns) PerWorkload(key string) []metrics.PerWorkload {
	runs := s.ByPolicy[key]
	out := make([]metrics.PerWorkload, len(runs))
	for i, run := range runs {
		pw := metrics.PerWorkload{
			SharedIPC: run.Result.IPCs(),
			AloneIPC:  make([]float64, len(run.Mix.Names)),
		}
		for j, n := range run.Mix.Names {
			pw.AloneIPC[j] = s.Alone[n]
		}
		out[i] = pw
	}
	return out
}

// SpeedupsOver returns per-workload weighted-speedup ratios of key over
// base — the values of the paper's s-curves.
func (s StudyRuns) SpeedupsOver(base, key string) []float64 {
	pb := s.PerWorkload(base)
	pk := s.PerWorkload(key)
	out := make([]float64, len(pb))
	for i := range pb {
		wb := metrics.WeightedSpeedup(pb[i].SharedIPC, pb[i].AloneIPC)
		wk := metrics.WeightedSpeedup(pk[i].SharedIPC, pk[i].AloneIPC)
		out[i] = metrics.Speedup(wk, wb)
	}
	return out
}
