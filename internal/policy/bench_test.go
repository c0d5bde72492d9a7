package policy

import (
	"fmt"
	"testing"

	"repro/internal/cache"
)

// Policy-layer benchmarks. After the batch-invariant event loop of PR 2 the
// profiles of paperfig -all are dominated by victim selection and per-fill
// policy bookkeeping, so these microbenchmarks are the tuning target for the
// hot path: BenchmarkVictim isolates Engine.Victim (including its aging
// behaviour), BenchmarkFillChurn drives whole policies through the
// miss/evict/fill cycle the LLC subjects them to.

// benchGeom is an LLC-shaped geometry at experiment scale.
var benchGeom = cache.Geometry{Sets: 1024, Ways: 16, Cores: 16}

// BenchmarkVictim measures victim selection on a full cache under SRRIP-like
// churn: every victim is immediately refilled at MaxRRPV-1, so the engine
// ages sets regularly — the pattern that made the old retry/aging loop hot.
func BenchmarkVictim(b *testing.B) {
	e := cache.NewEngine(benchGeom)
	for set := 0; set < benchGeom.Sets; set++ {
		for way := 0; way < benchGeom.Ways; way++ {
			e.SetRRPV(set, way, uint8((set+way)%(MaxRRPV+1)))
		}
	}
	mask, full := benchGeom.Sets-1, uint64(1)<<benchGeom.Ways-1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := i & mask
		w := e.Victim(set, full)
		e.SetRRPV(set, w, MaxRRPV-1)
	}
}

// BenchmarkFillChurn drives a full policy through the LLC's miss path —
// OnMiss, FillDecision, OnEvict, OnFill, with a sprinkling of OnHit — using
// a deterministic multi-core access pattern on a full cache, measuring the
// end-to-end per-fill bookkeeping cost of each policy.
func BenchmarkFillChurn(b *testing.B) {
	for _, name := range []string{"tadrrip", "ship", "eaf", "drrip", "lru"} {
		b.Run(name, func(b *testing.B) {
			p, err := New(name, benchGeom, Options{Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			miss, _ := p.(cache.MissObserver)
			evict, _ := p.(cache.EvictObserver)
			full := uint64(1)<<benchGeom.Ways - 1
			setMask := uint64(benchGeom.Sets - 1)
			coreMask := benchGeom.Cores - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := uint64(i)
				a := cache.Access{
					Block:  n * 0x9E3779B97F4A7C15 >> 20,
					Core:   i & coreMask,
					PC:     0x400000 + (n&63)<<3,
					Demand: true,
				}
				set := int(a.Block & setMask)
				if i&7 == 0 {
					// Periodic hit: promotes and trains hit-driven state.
					p.OnHit(&a, set, i&(benchGeom.Ways-1))
					continue
				}
				if miss != nil {
					miss.OnMiss(&a, set)
				}
				if way, ok := p.FillDecision(&a, set, full, full); ok {
					if evict != nil {
						evict.OnEvict(set, way, cache.EvictedLine{Block: a.Block ^ 0xABCD, Core: a.Core})
					}
					p.OnFill(&a, set, way)
				}
			}
		})
	}
}

// BenchmarkVictimAllWays checks scaling across associativities (the Figure 7
// larger-cache study grows ways to 24 and 32).
func BenchmarkVictimAllWays(b *testing.B) {
	for _, ways := range []int{16, 24, 32} {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			g := cache.Geometry{Sets: 256, Ways: ways, Cores: 16}
			e := cache.NewEngine(g)
			for set := 0; set < g.Sets; set++ {
				for way := 0; way < g.Ways; way++ {
					e.SetRRPV(set, way, uint8((set+way)%(MaxRRPV+1)))
				}
			}
			mask, full := g.Sets-1, uint64(1)<<ways-1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set := i & mask
				w := e.Victim(set, full)
				e.SetRRPV(set, w, MaxRRPV-1)
			}
		})
	}
}
