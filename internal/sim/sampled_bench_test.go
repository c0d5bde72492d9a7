package sim

import (
	"math"
	"testing"
	"time"
)

// BenchmarkSamplingFidelity is the sampled-fidelity headline claim, run
// once by CI's bench-smoke and uploaded as BENCH_sampling.txt: each
// iteration runs the 4-core mixA machine at paper-scale budgets twice —
// fully detailed and sampled at the default geometry — and reports the
// user-CPU speedup together with the estimator's mean and worst per-app
// IPC error against the detailed reference. The speedup is algorithmic
// (same goroutine budget both legs), so the number is meaningful even on
// a single-CPU runner.
func BenchmarkSamplingFidelity(b *testing.B) {
	names := []string{"calc", "mcf", "libq", "lbm"}
	detCfg := Scale(goldenConfig(len(names), "tadrrip"), 8)
	smpCfg := detCfg
	smpCfg.Sample = DefaultSample()
	const warmup, measure = 2_000_000, 10_000_000

	var detNs, smpNs time.Duration
	var meanErr, worstErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		det := NewFromNames(detCfg, names).Run(warmup, measure)
		t1 := time.Now()
		smp := NewFromNames(smpCfg, names).Run(warmup, measure)
		detNs += t1.Sub(t0)
		smpNs += time.Since(t1)

		var sum, worst float64
		for j := range det.Apps {
			if det.Apps[j].IPC <= 0 {
				b.Fatalf("app %d: non-positive detailed IPC", j)
			}
			e := math.Abs(smp.Apps[j].IPC-det.Apps[j].IPC) / det.Apps[j].IPC
			sum += e
			if e > worst {
				worst = e
			}
		}
		meanErr = sum / float64(len(det.Apps))
		worstErr = worst
	}
	b.StopTimer()
	if smpNs > 0 {
		b.ReportMetric(detNs.Seconds()/smpNs.Seconds(), "speedup")
	}
	b.ReportMetric(100*meanErr, "ipc-err-pct")
	b.ReportMetric(100*worstErr, "ipc-err-worst-pct")
}
