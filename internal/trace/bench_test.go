package trace

import "testing"

// Trace-generation microbenchmarks: scalar Next versus the batched
// NextBatch delivery path, per family and for the MarkovBurst wrapper.
// CI's bench-smoke runs these once as a smoke and uploads the output as
// BENCH_tracegen.txt; perf/ times trace generation per layer.

const benchBatch = 64

func benchGens() []struct {
	name string
	mk   func() Generator
} {
	bp := BurstParams{CalmMemRatio: 0.1, BurstMemRatio: 0.6, CalmOps: 48, BurstOps: 16}
	return []struct {
		name string
		mk   func() Generator
	}{
		{"WorkingSet", func() Generator { return NewWorkingSet(params(0.3, 5), 4096, 0.1, 0.7) }},
		{"Cyclic", func() Generator { return NewCyclicStride(params(0.3, 5), 4096, 3) }},
		{"Stream", func() Generator { return NewStream(params(0.3, 5), 1<<20) }},
		{"MixedScan", func() Generator { return NewMixedScan(params(0.3, 5), 64, 8, 32, 1<<16) }},
		{"MarkovBurst", func() Generator {
			return NewMarkovBurst(NewWorkingSet(params(0.3, 5), 4096, 0.1, 0.7), bp, 0xBEEF)
		}},
	}
}

// BenchmarkNext measures the scalar path per op, through the Generator
// interface exactly as the pre-batching core consumed it.
func BenchmarkNext(b *testing.B) {
	for _, g := range benchGens() {
		b.Run(g.name, func(b *testing.B) {
			gen := g.mk()
			var op Op
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.Next(&op)
			}
		})
	}
}

// BenchmarkNextBatch measures the batched path per op (batch length 64,
// the cpu.DefaultTraceBatch ring size), through FillBatch exactly as the
// core's ring refill consumes it.
func BenchmarkNextBatch(b *testing.B) {
	for _, g := range benchGens() {
		b.Run(g.name, func(b *testing.B) {
			gen := g.mk()
			ops := make([]Op, benchBatch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += benchBatch {
				FillBatch(gen, ops)
			}
		})
	}
}
