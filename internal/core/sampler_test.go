package core

import (
	"testing"
	"testing/quick"
)

func samplerCfg(sets, cores, monitored int) SamplerConfig {
	return SamplerConfig{Sets: sets, Cores: cores, MonitoredSets: monitored, Seed: 42}
}

func TestSamplerDefaults(t *testing.T) {
	s := NewSampler(SamplerConfig{Sets: 16384, Cores: 16, Seed: 1})
	cfg := s.Config()
	if cfg.MonitoredSets != DefaultMonitoredSets {
		t.Fatalf("monitored sets = %d, want %d", cfg.MonitoredSets, DefaultMonitoredSets)
	}
	if len(s.MonitoredSets()) != DefaultMonitoredSets {
		t.Fatalf("%d monitored sets sampled", len(s.MonitoredSets()))
	}
}

func TestSamplerMonitoredMembership(t *testing.T) {
	s := NewSampler(samplerCfg(1024, 2, 40))
	n := 0
	for set := 0; set < 1024; set++ {
		if s.Monitored(set) {
			n++
		}
	}
	if n != 40 {
		t.Fatalf("Monitored reports %d sets, want 40", n)
	}
	for _, set := range s.MonitoredSets() {
		if !s.Monitored(set) {
			t.Fatalf("set %d in MonitoredSets() but not Monitored()", set)
		}
	}
}

func TestSamplerCountsUniqueAccesses(t *testing.T) {
	s := NewSampler(samplerCfg(64, 1, 64)) // monitor everything
	set := 5
	// 4 distinct blocks mapping to set 5, re-accessed repeatedly.
	blocks := []uint64{5, 5 + 64, 5 + 128, 5 + 192}
	for round := 0; round < 10; round++ {
		for _, b := range blocks {
			s.Observe(0, set, b)
		}
	}
	// Unique count for that set is 4; 63 other sets contribute 0.
	want := 4.0 / 64.0
	if got := s.Footprint(0); got != want {
		t.Fatalf("footprint = %v, want %v", got, want)
	}
}

func TestSamplerAverageAcrossSets(t *testing.T) {
	// The paper's Figure 2b example: arrays with 3, 2, 3, 3 unique entries
	// over 4 monitored sets give Footprint-number (3+2+3+3)/4 = 2.75.
	s := NewSampler(samplerCfg(4, 1, 4))
	uniques := [][]uint64{
		{0, 4, 8},  // set 0: 3 unique block addresses
		{1, 5},     // set 1: 2
		{2, 6, 10}, // set 2: 3
		{3, 7, 11}, // set 3: 3
	}
	for set, blocks := range uniques {
		for _, b := range blocks {
			s.Observe(0, set, b)
		}
	}
	if got := s.Footprint(0); got != 2.75 {
		t.Fatalf("footprint = %v, want 2.75 (paper's example)", got)
	}
}

func TestSamplerIgnoresUnmonitoredSets(t *testing.T) {
	s := NewSampler(samplerCfg(1024, 1, 8))
	for set := 0; set < 1024; set++ {
		if !s.Monitored(set) {
			if s.Observe(0, set, uint64(set)) {
				t.Fatal("unmonitored set counted an access")
			}
		}
	}
	if s.Footprint(0) != 0 {
		t.Fatal("unmonitored accesses contributed to footprint")
	}
	if s.Observed(0) != 0 {
		t.Fatal("unmonitored accesses counted as observed")
	}
}

func TestSamplerPerCoreIsolation(t *testing.T) {
	s := NewSampler(samplerCfg(64, 2, 64))
	for b := uint64(0); b < 64*8; b++ {
		s.Observe(0, int(b%64), b)
	}
	if s.Footprint(0) != 8 {
		t.Fatalf("core 0 footprint = %v, want 8", s.Footprint(0))
	}
	if s.Footprint(1) != 0 {
		t.Fatalf("core 1 footprint = %v, want 0", s.Footprint(1))
	}
}

func TestSamplerHitDoesNotRecount(t *testing.T) {
	s := NewSampler(samplerCfg(16, 1, 16))
	if !s.Observe(0, 3, 3) {
		t.Fatal("first access should be unique")
	}
	for i := 0; i < 100; i++ {
		if s.Observe(0, 3, 3) {
			t.Fatal("repeated access counted as unique")
		}
	}
}

func TestSamplerThrashingOvercounts(t *testing.T) {
	// A cyclic sweep of 32 distinct blocks through one 16-entry array:
	// every access misses the array after it fills, so the unique counter
	// grows beyond 16 — exactly the saturating behaviour that pushes
	// thrashing applications into the Least bucket.
	s := NewSampler(samplerCfg(16, 1, 16))
	for round := 0; round < 4; round++ {
		for b := uint64(0); b < 32; b++ {
			s.Observe(0, 0, b*16) // all map to set 0, distinct partial tags
		}
	}
	// Per-set count is large; average over 16 sets with one active set.
	fp := s.Footprint(0)
	if fp < 32.0/16.0 {
		t.Fatalf("footprint = %v, want >= 2 (cyclic overcount)", fp)
	}
}

// TestSamplerArrayEvictionOrder pins a full array's SRRIP order: a unique
// tag displaces the lowest-indexed entry still at the insertion value once
// the entries re-accessed since their fill have been promoted.
func TestSamplerArrayEvictionOrder(t *testing.T) {
	s := NewSampler(samplerCfg(16, 1, 16))
	tag := func(i int) uint64 { return uint64(i) * 16 } // set 0, partial tag i
	for i := 0; i < ArrayEntries; i++ {
		if !s.Observe(0, 0, tag(i)) {
			t.Fatalf("tag %d not unique on its first access", i)
		}
	}
	for i := 0; i < ArrayEntries; i += 2 {
		if s.Observe(0, 0, tag(i)) {
			t.Fatalf("tag %d counted twice", i)
		}
	}
	if !s.Observe(0, 0, tag(ArrayEntries)) {
		t.Fatal("17th tag not unique")
	}
	// The 17th tag displaced entry 1, the lowest left at RRPV 2, so tag 1
	// is unique again; installing it displaces entry 3, the next one.
	if !s.Observe(0, 0, tag(1)) {
		t.Fatal("tag 1 still held: the 17th tag displaced another entry")
	}
	for _, i := range []int{0, 2, 4, 6, 8, 10, 12, 14, 5, 7, 9, 11, 13, 15, ArrayEntries} {
		if s.Observe(0, 0, tag(i)) {
			t.Errorf("tag %d was displaced", i)
		}
	}
	if !s.Observe(0, 0, tag(3)) {
		t.Fatal("tag 3 still held: tag 1 displaced another entry")
	}
}

func TestSamplerFootprintCap(t *testing.T) {
	s := NewSampler(samplerCfg(1, 1, 1))
	// Hammer one monitored set with thousands of unique blocks: the
	// reported per-set contribution must cap at FootprintCap (32).
	for b := uint64(0); b < 10000; b++ {
		s.Observe(0, 0, b)
	}
	if got := s.Footprint(0); got != FootprintCap {
		t.Fatalf("footprint = %v, want cap %d", got, FootprintCap)
	}
}

func TestSamplerResetInterval(t *testing.T) {
	s := NewSampler(samplerCfg(16, 1, 16))
	for b := uint64(0); b < 64; b++ {
		s.Observe(0, int(b%16), b)
	}
	if s.Footprint(0) == 0 {
		t.Fatal("setup failed: footprint should be nonzero")
	}
	s.ResetInterval()
	if s.Footprint(0) != 0 {
		t.Fatal("footprint not cleared by ResetInterval")
	}
	if s.Observed(0) != 0 {
		t.Fatal("observed count not cleared")
	}
	// Blocks seen before the reset are unique again afterwards.
	if !s.Observe(0, 0, 0) {
		t.Fatal("pre-reset block not treated as unique after reset")
	}
}

func TestSamplerDeterministicSetSelection(t *testing.T) {
	a := NewSampler(samplerCfg(4096, 1, 40))
	b := NewSampler(samplerCfg(4096, 1, 40))
	sa, sb := a.MonitoredSets(), b.MonitoredSets()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed produced different monitored sets")
		}
	}
	c := NewSampler(SamplerConfig{Sets: 4096, Cores: 1, MonitoredSets: 40, Seed: 99})
	diff := false
	for i, v := range c.MonitoredSets() {
		if v != sa[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical monitored sets")
	}
}

func TestSamplerPartialTagWidth(t *testing.T) {
	s := NewSampler(samplerCfg(1024, 1, 40))
	f := func(block uint64) bool {
		return s.partialTag(block) < 1<<PartialTagBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerPartialTagCollisionCounting(t *testing.T) {
	// Two blocks in the same set whose partial tags collide are counted as
	// one unique access — the documented approximation cost of 10-bit tags.
	s := NewSampler(samplerCfg(16, 1, 16))
	b1 := uint64(0)             // set 0, partial tag 0
	b2 := uint64(1 << (10 + 4)) // set 0, full tag 1<<10 -> partial tag 0 (collision)
	if s.partialTag(b1) != s.partialTag(b2) {
		t.Skip("tag construction changed; collision blocks need updating")
	}
	s.Observe(0, 0, b1)
	if s.Observe(0, 0, b2) {
		t.Fatal("collision blocks counted twice; partial tags not in effect")
	}
}

func TestSamplerMoreMonitoredThanSets(t *testing.T) {
	// Config asks for 40 monitored sets of an 8-set cache: clamp to 8.
	s := NewSampler(SamplerConfig{Sets: 8, Cores: 1, MonitoredSets: 40, Seed: 1})
	if got := s.Config().MonitoredSets; got != 8 {
		t.Fatalf("monitored sets = %d, want clamped 8", got)
	}
}

func TestSamplerPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []SamplerConfig{
		{Sets: 0, Cores: 1},
		{Sets: 48, Cores: 1}, // non power-of-two
		{Sets: 64, Cores: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewSampler(cfg)
		}()
	}
}

func TestStorageBitsPerApp(t *testing.T) {
	// Paper §3.3: 204 bits/set x 40 sets + 40 bits = 8200 bits ~ 1KB/app.
	bits := StorageBitsPerApp(DefaultMonitoredSets)
	if bits != 8200 {
		t.Fatalf("storage = %d bits, want the paper's 8200", bits)
	}
}
