package main

// metricDef names one metric the benchmark reports. BENCHMARK.json lists
// the same names, units and directions for every metric that every
// workload reports (TestBenchmarkJSONMatchesMetrics).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	e2e    bool   // end to end (untraced pass) rather than per layer (traced pass)
	// exact marks a simulated statistic or count: every run of one seed
	// reads the same value, so -compare compares it exactly.
	exact bool
	// only names the one workload that reports the metric. BENCHMARK.json
	// cannot list such a metric (it lists what every workload reports), so
	// its regression bound for -compare is kept here.
	only  string
	bound float64
	// host marks a host time (hostTime) or a rate per host second
	// (hostRate): its samples are scaled to the reference host's speed.
	host hostScale
}

type hostScale int

const (
	notHost  hostScale = iota
	hostTime           // multiplied by the rep's speed
	hostRate           // divided by the rep's speed
)

var metricDefs = []metricDef{
	// End to end, untraced pass: one sample per rep, reported as the median.
	{name: "setup_s", unit: "s", better: "lower", e2e: true, host: hostTime},
	{name: "run_cpu_s", unit: "s", better: "lower", e2e: true, host: hostTime},
	{name: "sim_minstr_per_s", unit: "Minstr/s", better: "higher", e2e: true, host: hostRate},
	{name: "max_rss_mb", unit: "MB", better: "lower", e2e: true},
	{name: "sampled_speedup", unit: "x", better: "higher", e2e: true, only: "mix4-paper-sampled", bound: 0.10},
	{name: "sampled_ipc_err_mean_pct", unit: "%", better: "lower", e2e: true, exact: true, only: "mix4-paper-sampled"},
	{name: "sampled_ipc_err_worst_pct", unit: "%", better: "lower", e2e: true, exact: true, only: "mix4-paper-sampled"},

	// Per layer, traced pass. Replay costs are medians over timed chunks.
	{name: "trace.ns_per_op", unit: "ns", better: "lower", host: hostTime},
	{name: "trace.ns_per_op_p99", unit: "ns", better: "lower", host: hostTime},
	{name: "trace.insitu_share", unit: "share", better: "lower"},
	{name: "trace.busy_share", unit: "share", better: "lower"},
	{name: "cpu.ns_per_step", unit: "ns", better: "lower", host: hostTime},
	{name: "cpu.busy_share", unit: "share", better: "lower"},
	{name: "cache.l1_ns_per_access", unit: "ns", better: "lower", host: hostTime},
	{name: "cache.l2_ns_per_access", unit: "ns", better: "lower", host: hostTime},
	{name: "cache.replay_l2_miss_err_pct", unit: "%", better: "lower", exact: true},
	{name: "cache.busy_share", unit: "share", better: "lower"},
	{name: "llc.ns_per_access.lru", unit: "ns", better: "lower", host: hostTime},
	{name: "llc.ns_per_access.tadrrip", unit: "ns", better: "lower", host: hostTime},
	{name: "llc.ns_per_access.ship", unit: "ns", better: "lower", host: hostTime},
	{name: "llc.ns_per_access.eaf", unit: "ns", better: "lower", host: hostTime},
	{name: "llc.ns_per_access.adapt", unit: "ns", better: "lower", host: hostTime},
	{name: "llc.ns_per_access.adapt-ins", unit: "ns", better: "lower", host: hostTime},
	{name: "llc.busy_share", unit: "share", better: "lower"},
	{name: "arbiter.ns_per_grant", unit: "ns", better: "lower", host: hostTime},
	{name: "arbiter.busy_share", unit: "share", better: "lower"},
	{name: "pool.ns_per_reserve", unit: "ns", better: "lower", host: hostTime},
	{name: "pool.busy_share", unit: "share", better: "lower"},
	{name: "mem.ns_per_access", unit: "ns", better: "lower", host: hostTime},
	{name: "mem.busy_share", unit: "share", better: "lower"},
	{name: "sim.glue_share", unit: "share", better: "lower"},
	{name: "schedule.executed", unit: "count", better: "lower", exact: true},
	{name: "schedule.mem_hits", unit: "count", better: "higher", exact: true},
	{name: "schedule.job_setup_s", unit: "s", better: "lower", host: hostTime},
	{name: "schedule.job_run_s", unit: "s", better: "lower", host: hostTime},
	{name: "experiments.self_s", unit: "s", better: "lower", host: hostTime},
	{name: "schedule.warm_rerun_ms", unit: "ms", better: "lower", host: hostTime},
	{name: "gc.alloc_mb", unit: "MB", better: "lower"},
	{name: "gc.cycles", unit: "count", better: "lower"},
	{name: "model.instr_total_m", unit: "Minstr", better: "lower", exact: true},
	{name: "model.reexec_share", unit: "share", better: "lower", exact: true},
	{name: "model.ipc_mean", unit: "IPC", better: "higher", exact: true},
	{name: "model.l2_mpki", unit: "MPKI", better: "lower", exact: true},
	{name: "model.llc_mpki", unit: "MPKI", better: "lower", exact: true},
	{name: "model.llc_bypass_share", unit: "share", better: "higher", exact: true},
	{name: "model.arbiter_wait_cycles", unit: "cycles", better: "lower", exact: true},
	{name: "model.dram_row_hit_rate", unit: "share", better: "higher", exact: true},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.host_speed", unit: "x", better: "higher"},
}

// metricDefByName indexes metricDefs.
var metricDefByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range metricDefs {
		m[d.name] = d
	}
	return m
}()

// glueMismatch is the sim.glue_share below which the layer costs add up to
// more than the rep itself cost: the replays no longer match the run.
const glueMismatch = -0.10

// metricValue is one reported metric: its median over the run, the samples
// behind it and their count. A replay cost has one sample, the median of
// its N timed chunks.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// assemble computes every metric of one workload from its untraced reps
// and, when present, its traced rep. Host times are multiplied by the speed
// of the host during their rep and rates per host second divided by it.
func assemble(untraced []repRun, traced *repRun) map[string]metricValue {
	samples := map[string][]float64{}
	add := func(r repRun, name string, v float64) {
		switch metricDefByName[name].host {
		case hostTime:
			v *= r.Speed
		case hostRate:
			v /= r.Speed
		}
		samples[name] = append(samples[name], v)
	}
	for _, r := range untraced {
		add(r, "setup_s", r.Report.SetupS)
		add(r, "run_cpu_s", r.UserCPU)
		add(r, "sim_minstr_per_s", ratio(float64(r.Report.DetInst)/1e6, r.Report.DetRunS))
		add(r, "max_rss_mb", r.MaxRSSMB)
		for name, v := range r.Report.Sampled {
			add(r, name, v)
		}
	}
	if traced != nil {
		tr := traced.Report
		for name, v := range tr.Traced.Layers {
			add(*traced, name, v)
		}
		// Counts and host-time splits come from the untraced reps, where
		// tracing costs nothing; every rep repeats the exact ones.
		var repCPU []float64
		for _, r := range untraced {
			repCPU = append(repCPU, r.Report.RepCPU*r.Speed)
			for name, v := range r.Report.Model {
				add(r, name, v)
			}
			add(r, "schedule.executed", float64(r.Report.Exec))
			add(r, "schedule.mem_hits", float64(r.Report.MemHits))
			add(r, "schedule.warm_rerun_ms", r.Report.WarmMs)
			add(r, "schedule.job_setup_s", r.Report.JobSetupS)
			add(r, "schedule.job_run_s", r.Report.JobRunS)
			add(r, "experiments.self_s", r.Report.RepCPU-r.Report.JobSetupS-r.Report.JobRunS)
			add(r, "gc.alloc_mb", r.Report.AllocMB)
			add(r, "gc.cycles", float64(r.Report.GCs))
			add(r, "bench.host_speed", r.Speed)
		}
		if len(repCPU) > 0 {
			add(*traced, "bench.trace_overhead_pct", 100*(tr.RepCPU*traced.Speed/median(repCPU)-1))
		}
	}
	out := map[string]metricValue{}
	for _, d := range metricDefs {
		s, ok := samples[d.name]
		if !ok {
			continue
		}
		out[d.name] = metricValue{Value: median(s), Unit: d.unit, N: len(s), Samples: s}
	}
	if traced != nil {
		for name, n := range traced.Report.Traced.Chunks {
			if mv, ok := out[name]; ok {
				mv.N = n
				out[name] = mv
			}
		}
	}
	return out
}
