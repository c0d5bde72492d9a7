package policy

import (
	"testing"

	"repro/internal/cache"
)

func geom(sets, ways, cores int) cache.Geometry {
	return cache.Geometry{Sets: sets, Ways: ways, Cores: cores}
}

func newCache(t *testing.T, g cache.Geometry, p cache.ReplacementPolicy) *cache.Cache {
	t.Helper()
	return cache.New(cache.Config{
		Name:       "llc-test",
		Geometry:   g,
		BlockBytes: 64,
		HitLatency: 24,
	}, p)
}

// demand builds a demand read access.
func demand(block uint64, core int, pc uint64) *cache.Access {
	return &cache.Access{Block: block, Core: core, PC: pc, Demand: true}
}

func TestRegistryKnowsAllBaselines(t *testing.T) {
	want := []string{"lru", "srrip", "brrip", "drrip", "tadrrip",
		"tadrrip-sd128", "tadrrip-bp", "ship", "ship-bp", "eaf", "eaf-bp"}
	names := Names()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing %q (have %v)", w, names)
		}
	}
}

func TestRegistryNewUnknown(t *testing.T) {
	if _, err := New("no-such-policy", geom(16, 4, 1), Options{}); err == nil {
		t.Fatal("unknown policy did not error")
	}
}

func TestRegistryConstructsEverything(t *testing.T) {
	g := geom(64, 4, 2)
	for _, name := range Names() {
		p, err := New(name, g, Options{Seed: 1})
		if err != nil {
			t.Fatalf("constructing %s: %v", name, err)
		}
		// Smoke: drive a few accesses through a real cache.
		c := newCache(t, g, p)
		for b := uint64(0); b < 300; b++ {
			c.Access(demand(b%97, int(b%2), 0x400000+b%7))
		}
		if c.ValidLines() == 0 && name != "adapt" {
			t.Errorf("%s: cache empty after 300 accesses", name)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("lru", func(g cache.Geometry, opt Options) cache.ReplacementPolicy { return NewLRU(g) })
}

func TestEpsilonCounterPeriod(t *testing.T) {
	c := NewEpsilonCounter(32)
	fires := 0
	for i := 0; i < 320; i++ {
		if c.Fire() {
			fires++
		}
	}
	if fires != 10 {
		t.Fatalf("epsilon counter fired %d/320 times, want 10 (1/32)", fires)
	}
}

func TestEpsilonCounterZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period epsilon counter did not panic")
		}
	}()
	NewEpsilonCounter(0)
}

func TestRRIPEngineVictimPrefersInvalid(t *testing.T) {
	e := cache.NewEngine(geom(2, 4, 1))
	e.SetRRPV(0, 0, 3)
	e.SetRRPV(0, 1, 3)
	// Ways 2 and 3 never filled -> invalid, must be chosen first.
	if w := e.Victim(0, 0b0011); w != 2 {
		t.Fatalf("victim = %d, want first invalid way 2", w)
	}
}

func TestRRIPEngineAging(t *testing.T) {
	e := cache.NewEngine(geom(1, 4, 1))
	for w := 0; w < 4; w++ {
		e.SetRRPV(0, w, 0)
	}
	// No line at MaxRRPV: engine must age everyone up to 3 then pick way 0.
	if w := e.Victim(0, 0b1111); w != 0 {
		t.Fatalf("victim = %d, want 0", w)
	}
	for w := 0; w < 4; w++ {
		if e.RRPVAt(0, w) != MaxRRPV {
			t.Fatalf("way %d rrpv = %d after aging, want %d", w, e.RRPVAt(0, w), MaxRRPV)
		}
	}
}

func TestSRRIPInsertionAndPromotion(t *testing.T) {
	g := geom(1, 4, 1)
	p := NewSRRIP(g)
	c := newCache(t, g, p)
	c.Access(demand(0, 0, 0))
	if v := p.RRPVAt(0, 0); v != MaxRRPV-1 {
		t.Fatalf("SRRIP inserted at %d, want %d", v, MaxRRPV-1)
	}
	c.Access(demand(0, 0, 0))
	if v := p.RRPVAt(0, 0); v != 0 {
		t.Fatalf("SRRIP hit left rrpv %d, want 0", v)
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// A hot block re-referenced between scan bursts must survive the scan:
	// the defining SRRIP property versus LRU.
	g := geom(1, 4, 1)
	p := NewSRRIP(g)
	c := newCache(t, g, p)
	hot := uint64(1000)
	c.Access(demand(hot, 0, 1))
	c.Access(demand(hot, 0, 1)) // promote to 0
	scan := uint64(1)
	hits := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ { // scan 3 distinct blocks (fits remaining ways)
			c.Access(demand(scan, 0, 2))
			scan++
		}
		if res := c.Access(demand(hot, 0, 1)); res.Hit {
			hits++
		}
	}
	if hits < 9 {
		t.Fatalf("hot block hit only %d/10 rounds under scans; SRRIP should protect it", hits)
	}
}

func TestLRUSamePatternThrashes(t *testing.T) {
	// The same pattern as above but with a 4-block scan defeats LRU entirely
	// (cyclic set overflow), while SRRIP keeps the hot line.
	g := geom(1, 4, 1)
	runPattern := func(p cache.ReplacementPolicy) int {
		c := newCache(t, g, p)
		hot := uint64(1000)
		c.Access(demand(hot, 0, 1))
		c.Access(demand(hot, 0, 1))
		scan := uint64(1)
		hits := 0
		for round := 0; round < 10; round++ {
			for i := 0; i < 4; i++ {
				c.Access(demand(scan, 0, 2))
				scan++
			}
			if res := c.Access(demand(hot, 0, 1)); res.Hit {
				hits++
			}
		}
		return hits
	}
	lruHits := runPattern(NewLRU(g))
	srripHits := runPattern(NewSRRIP(g))
	if lruHits != 0 {
		t.Fatalf("LRU should lose the hot block to a 4-deep scan, got %d hits", lruHits)
	}
	if srripHits < 9 {
		t.Fatalf("SRRIP should keep the hot block, got %d hits", srripHits)
	}
}

func TestBRRIPRetainsFractionOfThrashingSet(t *testing.T) {
	// Cyclic working set of 8 blocks over a 4-way set: LRU/SRRIP get zero
	// hits; BRRIP's 1/32 long insertions retain a small persistent subset.
	g := geom(1, 4, 1)
	run := func(p cache.ReplacementPolicy) int {
		c := newCache(t, g, p)
		hits := 0
		for round := 0; round < 200; round++ {
			for b := uint64(0); b < 8; b++ {
				if res := c.Access(demand(b, 0, 3)); res.Hit {
					hits++
				}
			}
		}
		return hits
	}
	lru := run(NewLRU(g))
	brrip := run(NewBRRIP(g))
	if lru != 0 {
		t.Fatalf("LRU on cyclic overflow should never hit, got %d", lru)
	}
	if brrip < 100 {
		t.Fatalf("BRRIP should retain part of the thrashing set, got only %d hits", brrip)
	}
}

func TestLRUVictimIsLeastRecent(t *testing.T) {
	g := geom(1, 3, 1)
	p := NewLRU(g)
	c := newCache(t, g, p)
	c.Access(demand(0, 0, 0))
	c.Access(demand(1, 0, 0))
	c.Access(demand(2, 0, 0))
	c.Access(demand(0, 0, 0))        // refresh block 0
	res := c.Access(demand(3, 0, 0)) // must evict block 1
	if !res.EvictedValid || res.Evicted.Block != 1 {
		t.Fatalf("LRU evicted %+v, want block 1", res)
	}
}

func TestNonDemandDoesNotPromoteLRU(t *testing.T) {
	g := geom(1, 2, 1)
	p := NewLRU(g)
	c := newCache(t, g, p)
	c.Access(demand(0, 0, 0))
	c.Access(demand(1, 0, 0))
	// Prefetch hit on block 0 must NOT refresh it (footnote 4 of the paper).
	c.Access(&cache.Access{Block: 0, Core: 0, Demand: false})
	res := c.Access(demand(2, 0, 0))
	if !res.EvictedValid || res.Evicted.Block != 0 {
		t.Fatalf("prefetch hit refreshed recency: evicted %+v, want block 0", res)
	}
}
