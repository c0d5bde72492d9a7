package sim

import "testing"

// Core-loop benchmarks: raw simulation throughput of runUntilRetired with no
// experiment harness or scheduler in the way. These are the numbers the
// batching work in run.go is tuned against.

func benchRun(b *testing.B, cores int, names []string) {
	b.Helper()
	cfg := quickConfig(cores)
	var instr uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := NewFromNames(cfg, names).Run(5_000, 50_000)
		for _, app := range res.Apps {
			instr += app.Instructions
		}
	}
	b.StopTimer()
	if instr == 0 {
		b.Fatal("no instructions retired")
	}
	b.ReportMetric(float64(instr)/float64(b.Elapsed().Seconds())/1e6, "Minstr/s")
}

func BenchmarkRunSolo(b *testing.B) {
	benchRun(b, 1, []string{"mcf"})
}

func BenchmarkRunSoloCompute(b *testing.B) {
	benchRun(b, 1, []string{"calc"})
}

func BenchmarkRunMix4(b *testing.B) {
	benchRun(b, 4, []string{"calc", "mcf", "libq", "gcc"})
}

// BenchmarkRunMix16 is a balanced 16-core mix: private work (trace
// generation, core stepping, L1/L2) dominates the profile.
func BenchmarkRunMix16(b *testing.B) {
	benchRun(b, 16, []string{
		"calc", "mcf", "libq", "gcc", "lbm", "art", "eon", "gob",
		"milc", "mesa", "STRM", "calc", "mcf", "libq", "gcc", "lbm",
	})
}

// BenchmarkRunMix16Streaming is the substrate-bound counterpart: a 16-core
// all-streaming/thrashing mix whose aggregate L2 miss density keeps the
// arbiter, the LLC and the DRAM banks busy.
func BenchmarkRunMix16Streaming(b *testing.B) {
	benchRun(b, 16, streaming16)
}
