package core

import (
	"testing"

	"repro/internal/cache"
)

// Tests for the two interval schemes: the primary per-application intervals
// and the paper-literal global intervals (see Config.GlobalInterval for why
// per-application is the default).

func TestGlobalIntervalRecomputesEveryone(t *testing.T) {
	g := adaptGeom(64, 4, 2)
	cfg := Config{Geometry: g, GlobalInterval: true, IntervalMisses: 2048, Bypass: true, Seed: 1}
	c, a := adaptCache(t, cfg)
	// Core 0 thrashes; core 1 idles. After one global interval (2048 total
	// misses = 32 unique blocks per set), both get classified: core 0 from
	// its footprint, core 1 with footprint 0 (High) — the contamination
	// the per-app scheme avoids.
	for b := uint64(0); b < 2048; b++ {
		c.Access(&cache.Access{Block: b, Core: 0, Demand: true})
	}
	if a.Intervals() != 1 {
		t.Fatalf("intervals = %d, want 1", a.Intervals())
	}
	if a.BucketOf(0) != BucketLeast {
		t.Fatalf("thrasher classified %v", a.BucketOf(0))
	}
	if a.BucketOf(1) != BucketHigh {
		t.Fatalf("idle app classified %v under global interval, want HP (fpn=0 artifact)", a.BucketOf(1))
	}
}

func TestPerAppIntervalIsolatesLightApps(t *testing.T) {
	g := adaptGeom(64, 4, 2)
	cfg := Config{Geometry: g, IntervalMisses: 2048, Bypass: true, Seed: 1}
	c, a := adaptCache(t, cfg)
	// Same scenario under per-app intervals: the idle application keeps its
	// neutral default instead of being misclassified to High priority.
	for b := uint64(0); b < 2048; b++ {
		c.Access(&cache.Access{Block: b, Core: 0, Demand: true})
	}
	if a.BucketOf(0) != BucketLeast {
		t.Fatalf("thrasher classified %v", a.BucketOf(0))
	}
	if a.BucketOf(1) != BucketLow {
		t.Fatalf("idle app classified %v, want the LP default", a.BucketOf(1))
	}
}

func TestObservedClosureClassifiesHitHeavyApp(t *testing.T) {
	// An application that always hits (working set resident) never reaches
	// a miss quota; the observation path must classify it anyway.
	g := adaptGeom(64, 4, 1)
	cfg := Config{Geometry: g, IntervalMisses: 1 << 60, MonitoredSets: 64, Bypass: true, Seed: 1}
	c, a := adaptCache(t, cfg)
	ws := uint64(2 * g.Sets) // 2 blocks per set: comfortably High priority
	var i uint64
	for a.Intervals() == 0 {
		c.Access(&cache.Access{Block: i % ws, Core: 0, Demand: true})
		i++
		if i > 1_000_000 {
			t.Fatal("observation-based closure never fired")
		}
	}
	if a.BucketOf(0) != BucketHigh {
		t.Fatalf("resident app classified %v (fpn %.2f), want HP", a.BucketOf(0), a.FootprintNumber(0))
	}
}

func TestPerAppIntervalCountsAreIndependent(t *testing.T) {
	g := adaptGeom(64, 4, 2)
	cfg := Config{Geometry: g, IntervalMisses: 100, Bypass: true, Seed: 1}
	c, a := adaptCache(t, cfg)
	// 99 misses from core 0, then a burst from core 1: core 1's misses must
	// not close core 0's interval.
	for b := uint64(0); b < 99; b++ {
		c.Access(&cache.Access{Block: b, Core: 0, Demand: true})
	}
	for b := uint64(0); b < 300; b++ {
		c.Access(&cache.Access{Block: 1<<30 | b, Core: 1, Demand: true})
	}
	// Core 1 closed (3 times 100 misses); core 0 still open.
	if a.FootprintNumber(0) != 0 {
		t.Fatal("core 0's interval closed on core 1's misses")
	}
	if a.FootprintNumber(1) == 0 {
		t.Fatal("core 1 never classified")
	}
}

func TestResetCoreIsolation(t *testing.T) {
	s := NewSampler(SamplerConfig{Sets: 64, Cores: 2, MonitoredSets: 64, Seed: 1})
	for b := uint64(0); b < 256; b++ {
		s.Observe(0, int(b%64), b)
		s.Observe(1, int(b%64), b)
	}
	if s.Footprint(0) == 0 || s.Footprint(1) == 0 {
		t.Fatal("setup failed")
	}
	s.ResetCore(0)
	if s.Footprint(0) != 0 {
		t.Fatal("core 0 not cleared")
	}
	if s.Footprint(1) == 0 {
		t.Fatal("ResetCore(0) wiped core 1's state")
	}
	if s.Observed(0) != 0 || s.Observed(1) == 0 {
		t.Fatal("observed counters mishandled by ResetCore")
	}
}
