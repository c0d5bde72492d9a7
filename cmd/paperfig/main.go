// Command paperfig regenerates the tables and figures of Sridharan &
// Seznec's ADAPT paper (RR-8816 / IPPS 2016) on the simulator in this
// repository.
//
// Usage:
//
//	paperfig -fig 1|3|4|5|6|7|8        regenerate one figure
//	paperfig -fig 8 -scale             extend Fig. 8 to 32/64/128 cores
//	paperfig -table 2|4|7              regenerate one table
//	paperfig -ablation interval|sets|ranges
//	paperfig -compare                  clustering (LFOC) vs insertion policies:
//	                                   fairness tables for calm and +burst mixes
//	paperfig -all                      everything (long)
//
// Fidelity flags:
//
//	-full            paper-scale geometry and instruction budgets (slow)
//	-tiny            test-scale fidelity (CI smoke runs)
//	-cache-scale N   cache scale divisor           (default 8)
//	-workloads N     mixes per study, 0 = paper    (default 20)
//	-measure N       instructions/app measured     (default 600000)
//	-warmup N        instructions/app warmed up    (default 150000)
//	-seed N          experiment seed               (default 42)
//	-parallel N      concurrent simulations        (default GOMAXPROCS)
//	-trace-batch N   per-core trace batch length   (default 0 = built-in)
//
// Sampled fidelity (SMARTS-style periodic sampling):
//
//	-sample            sampled fidelity: detailed windows + functional warming
//	-sample-windows N  detailed windows per app      (default 20; implies -sample)
//	-sample-detail N   instructions per window       (default measure/windows/8)
//	-sample-warm N     detailed warm-up per window   (default detail/2)
//	-validate-sampling run the sampled-vs-detailed validation table (4-core)
//
// -full and -tiny are mutually exclusive. Sampling changes results (it
// estimates from the detailed windows only, with confidence intervals in
// the tables' sampling validation output), so sampled runs are cached
// separately from detailed ones; but for a fixed sampling configuration
// results remain bit-identical across -parallel and -trace-batch.
//
// Each simulation is single-threaded; -parallel runs that many of them at
// once and changes no output bit, since simulations are deterministic.
// -trace-batch is likewise bit-identical for every value (batched trace
// delivery emits the exact scalar op stream); it exists so the CI
// determinism job can diff batch lengths, not for tuning.
//
// Output and caching flags:
//
//	-json FILE       also write every table as one structured JSON artifact
//	-csv DIR         also write one CSV file per table into DIR
//	-cache-dir DIR   persist simulation results under DIR (.simcache
//	                 conventionally) so re-runs only simulate what changed
//	-stats           print scheduler cache/dedup statistics to stderr
//	-cpuprofile FILE write a pprof CPU profile covering the whole run
//	-memprofile FILE write a pprof heap snapshot at exit (post-GC live set)
//	-server URL      run the experiments on a paperfigd server instead of
//	                 in process; tables stream back and print identically
//
// All simulations route through the shared internal/schedule scheduler, so
// a -all run computes the TA-DRRIP baseline grids once even though nearly
// every figure needs them, and a second run against the same -cache-dir is
// close to free. With -server, the same requests post to a long-running
// paperfigd (cmd/paperfigd) whose scheduler is shared by every client —
// the cache then coalesces across users, not just within one run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/sim"
)

// sampleOptions resolves the sampling flags into a sim.SampleConfig.
// -sample-windows alone implies sampling; window-geometry flags without any
// enabling flag are a likely operator error and are rejected rather than
// silently ignored.
func sampleOptions(sample bool, windows int, detail, warm uint64) (sim.SampleConfig, error) {
	sc := sim.SampleConfig{Windows: windows, DetailInstr: detail, WarmInstr: warm}
	if sample && sc.Windows == 0 {
		sc.Windows = sim.DefaultSampleWindows
	}
	if !sc.Enabled() && (detail != 0 || warm != 0) {
		return sim.SampleConfig{}, fmt.Errorf("-sample-detail/-sample-warm need -sample or -sample-windows")
	}
	return sc, nil
}

// fidelityOptions resolves the fidelity preset flags over the individually-
// flagged base options. full and tiny are mutually exclusive (previously
// -tiny silently won the combination). With a preset selected, explicitly-
// passed fidelity flags still override it (e.g. `-tiny -seed 7` is Tiny at
// seed 7); execution knobs and the sampling axis always carry over, since
// presets say nothing about them.
func fidelityOptions(base experiments.Options, full, tiny bool, explicit map[string]bool) (experiments.Options, error) {
	if full && tiny {
		return experiments.Options{}, fmt.Errorf("-full and -tiny are mutually exclusive; pick one fidelity preset")
	}
	if !full && !tiny {
		return base, nil
	}
	preset := experiments.Paper()
	if tiny {
		preset = experiments.Tiny()
	}
	preset.Parallelism = base.Parallelism
	preset.TraceBatch = base.TraceBatch
	preset.Sample = base.Sample
	if explicit["cache-scale"] {
		preset.Scale = base.Scale
	}
	if explicit["workloads"] {
		preset.MaxWorkloads = base.MaxWorkloads
	}
	if explicit["measure"] {
		preset.MeasureInstr = base.MeasureInstr
	}
	if explicit["warmup"] {
		preset.WarmupInstr = base.WarmupInstr
	}
	if explicit["seed"] {
		preset.Seed = base.Seed
	}
	return preset, nil
}

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure number to regenerate (1,3,4,5,6,7,8)")
		table     = flag.Int("table", 0, "table number to regenerate (2,4,7)")
		ablation  = flag.String("ablation", "", "ablation sweep: interval|sets|ranges")
		compare   = flag.Bool("compare", false, "clustering-vs-insertion comparison with fairness tables (calm and +burst)")
		all       = flag.Bool("all", false, "regenerate everything")
		full      = flag.Bool("full", false, "paper-scale fidelity (slow)")
		tiny      = flag.Bool("tiny", false, "test-scale fidelity (CI smoke)")
		scaleUp   = flag.Bool("scale", false, "extend -fig 8 to the beyond-paper 32/64/128-core scalability sweep")
		scale     = flag.Int("cache-scale", 8, "cache scale divisor")
		workloads = flag.Int("workloads", 20, "mixes per study (0 = paper counts)")
		measure   = flag.Uint64("measure", 600_000, "measured instructions per app")
		warmup    = flag.Uint64("warmup", 150_000, "warm-up instructions per app")
		seed      = flag.Uint64("seed", 42, "experiment seed")
		par       = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		traceBat  = flag.Int("trace-batch", 0, "per-core trace-delivery batch length (0 = default); results are bit-identical for every value — a testing knob for the determinism CI legs")
		sample    = flag.Bool("sample", false, "sampled fidelity: SMARTS-style detailed windows + deterministic functional warming")
		sampleWin = flag.Int("sample-windows", 0, "detailed measurement windows per app (0 = default 20; implies -sample)")
		sampleDet = flag.Uint64("sample-detail", 0, "detailed instructions per measurement window (0 = budget-derived)")
		sampleWrm = flag.Uint64("sample-warm", 0, "detailed warm-up instructions before each window (0 = detail/2)")
		valSample = flag.Bool("validate-sampling", false, "run the sampled-vs-detailed validation study (4-core, per-app IPC error with CIs)")
		jsonPath  = flag.String("json", "", "write a structured JSON artifact to this file")
		csvDir    = flag.String("csv", "", "write per-table CSV files into this directory")
		cacheDir  = flag.String("cache-dir", "", "on-disk simulation cache directory (e.g. "+schedule.DefaultCacheDir+")")
		stats     = flag.Bool("stats", false, "print scheduler statistics to stderr")
		server    = flag.String("server", "", "paperfigd base URL (e.g. http://localhost:8090); runs experiments remotely")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// Catch pre-rename invocations loudly: `-scale 4` now parses as the
		// boolean sweep toggle plus a stray positional argument.
		fmt.Fprintf(os.Stderr, "paperfig: unexpected arguments %q (the cache divisor flag is -cache-scale N; -scale is the Fig. 8 scalability-sweep toggle)\n", flag.Args())
		os.Exit(2)
	}

	sampleCfg, err := sampleOptions(*sample, *sampleWin, *sampleDet, *sampleWrm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfig:", err)
		os.Exit(2)
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	opt, err := fidelityOptions(experiments.Options{
		Scale:        *scale,
		MaxWorkloads: *workloads,
		WarmupInstr:  *warmup,
		MeasureInstr: *measure,
		Seed:         *seed,
		Parallelism:  *par,
		TraceBatch:   *traceBat,
		Sample:       sampleCfg,
	}, *full, *tiny, explicit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfig:", err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfig:", err)
		os.Exit(1)
	}
	defer stopProf()

	// Build the request list the flags describe. Requests run in the order
	// the old flag chain emitted them; -all expands to the full sequence.
	var reqs []experiments.Request
	add := func(r experiments.Request) {
		r.Opt = opt
		reqs = append(reqs, r)
	}
	if *all {
		reqs = experiments.AllRequests(opt, *scaleUp)
	} else {
		if *table == 2 || *table == 4 {
			add(experiments.Request{Table: *table})
		}
		if *fig != 0 {
			add(experiments.Request{Fig: *fig, Scale: *scaleUp && *fig == 8})
		}
		if *table == 7 {
			add(experiments.Request{Table: 7})
		}
		if *ablation != "" {
			add(experiments.Request{Ablation: *ablation})
		}
		if *compare {
			add(experiments.Request{Compare: true})
		}
		if *valSample {
			add(experiments.Request{Sampling: true})
		}
		if *table != 0 && *table != 2 && *table != 4 && *table != 7 {
			// Unknown table numbers fell through the old chain silently into
			// the usage message; keep the loud diagnostic path instead.
			add(experiments.Request{Table: *table})
		}
	}
	if len(reqs) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "paperfig:", err)
			os.Exit(2)
		}
	}

	sched := schedule.Shared()
	if *cacheDir != "" {
		if *server != "" {
			fmt.Fprintln(os.Stderr, "paperfig: -cache-dir is ignored with -server (the server owns its own store)")
		} else if err := sched.SetCacheDir(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "paperfig:", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	art := experiments.Artifact{Name: "paperfig", GeneratedAt: start.UTC(), Options: opt}
	emit := func(t experiments.Table) {
		t.Fprint(os.Stdout)
		art.Add(t)
	}

	if *server != "" {
		// Remote mode: stream each request's tables from paperfigd. The
		// rendering path is the same Table.Fprint, so stdout is
		// byte-identical to a local run of the same requests.
		client := &serve.Client{BaseURL: *server}
		for _, r := range reqs {
			sum, err := client.StreamTables(context.Background(), r, func(t experiments.Table) error {
				emit(t)
				return nil
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperfig:", err)
				os.Exit(1)
			}
			// The server reports its own cumulative scheduler traffic; keep
			// the last snapshot for the artifact and -stats.
			art.Scheduler = sum.Scheduler
		}
	} else {
		for _, r := range reqs {
			if err := r.Run(emit); err != nil {
				fmt.Fprintln(os.Stderr, "paperfig:", err)
				os.Exit(1)
			}
		}
		art.Scheduler = sched.Stats()
	}

	elapsed := time.Since(start).Round(time.Millisecond)
	art.Elapsed = elapsed.String()
	if *jsonPath != "" {
		if err := art.WriteJSON(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "paperfig: write json:", err)
			os.Exit(1)
		}
	}
	if *csvDir != "" {
		if err := art.WriteCSV(*csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "paperfig: write csv:", err)
			os.Exit(1)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "scheduler: %s\n", art.Scheduler)
	}
	fmt.Fprintf(os.Stderr, "elapsed: %s\n", elapsed)
}
