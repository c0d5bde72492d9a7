package sim

import "testing"

// Core-loop benchmarks: raw simulation throughput of runUntilRetired with no
// experiment harness or scheduler in the way. These are the numbers the
// batching work in run.go is tuned against.

// benchRun builds and runs the machine b.N times and reports Minstr/s over
// every instruction its cores retired: the whole warm-up, including what
// cores that cross its target retire while the slowest catches up, and
// everything after the warm-up boundary, including the re-execution of
// apps that finish their window before the slowest. It runs Run's
// detailed warm-up itself to read the cores' counts before the boundary
// resets them; Run(0, measure) then continues exactly as Run(warmup,
// measure) would. perf's sim_minstr_per_s counts the instructions its
// generators drew, which adds only the ops each core has drawn and not
// yet retired. Construction, under 1% of a run, stays in the timer.
func benchRun(b *testing.B, cfg Config, names []string) {
	b.Helper()
	const warmup, measure = 5_000, 50_000
	var instr, measured uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewFromNames(cfg, names)
		s.runUntilRetired(warmup, nil, nil)
		for _, c := range s.cores {
			instr += c.Retired()
		}
		res := s.Run(0, measure)
		for j, c := range s.cores {
			instr += c.Retired()
			measured += res.Apps[j].Instructions
		}
	}
	b.StopTimer()
	if measured == 0 {
		b.Fatal("no instructions measured")
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkRunSolo(b *testing.B) {
	benchRun(b, quickConfig(1), []string{"mcf"})
}

func BenchmarkRunSoloCompute(b *testing.B) {
	benchRun(b, quickConfig(1), []string{"calc"})
}

func BenchmarkRunMix4(b *testing.B) {
	benchRun(b, quickConfig(4), []string{"calc", "mcf", "libq", "gcc"})
}

// BenchmarkRunMix16 is a balanced 16-core mix: private work (trace
// generation, core stepping, L1/L2) dominates the profile.
func BenchmarkRunMix16(b *testing.B) {
	benchRun(b, quickConfig(16), balanced16)
}

// BenchmarkRunMix16Streaming is the substrate-bound counterpart: a 16-core
// all-streaming/thrashing mix whose aggregate L2 miss density keeps the
// arbiter, the LLC and the DRAM banks busy. Its LLC runs ADAPT_bp32, the
// policy of perf's mix16-streaming workload, whose bypasses skip the
// victim scan that a TA-DRRIP LLC would make on every miss.
func BenchmarkRunMix16Streaming(b *testing.B) {
	cfg := quickConfig(16)
	cfg.LLCPolicy = "adapt"
	benchRun(b, cfg, streaming16)
}
