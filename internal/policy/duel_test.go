package policy

import (
	"testing"

	"repro/internal/cache"
)

func TestEffectiveSD(t *testing.T) {
	cases := []struct {
		sets, threads, sd, want int
	}{
		{16384, 16, 64, 64},   // paper default fits
		{16384, 24, 128, 128}, // SD=128 with 24 threads: 6144 leaders < 16384
		{2048, 16, 64, 32},    // scaled-down cache: capped at sets/(4*threads)
		{2048, 24, 64, 21},
		{64, 16, 64, 1},    // tiny test cache: at least one leader set
		{16384, 16, 0, 64}, // zero selects the default
	}
	for _, c := range cases {
		if got := effectiveSD(c.sets, c.threads, c.sd); got != c.want {
			t.Errorf("effectiveSD(%d,%d,%d) = %d, want %d", c.sets, c.threads, c.sd, got, c.want)
		}
	}
}

func TestDuelMapAssignment(t *testing.T) {
	const sets, threads, sd = 1024, 4, 16
	m := newDuelMap(sets, threads, sd, 7)
	perThread := map[uint16][2]int{}
	followers := 0
	for s := 0; s < sets; s++ {
		switch m.role(s) {
		case follower:
			followers++
		case leaderSRRIP:
			c := perThread[uint16(m.owner(s))]
			c[0]++
			perThread[uint16(m.owner(s))] = c
		case leaderBRRIP:
			c := perThread[uint16(m.owner(s))]
			c[1]++
			perThread[uint16(m.owner(s))] = c
		}
	}
	if followers != sets-2*threads*sd {
		t.Fatalf("followers = %d, want %d", followers, sets-2*threads*sd)
	}
	for tid := 0; tid < threads; tid++ {
		c := perThread[uint16(tid)]
		if c[0] != sd || c[1] != sd {
			t.Fatalf("thread %d has %d SRRIP and %d BRRIP leaders, want %d each", tid, c[0], c[1], sd)
		}
	}
}

// TestDuelMapDegenerateGeometry pins the many-threads-tiny-cache fallback:
// when even one leader pair per thread exceeds the cache (reachable via
// paperfig -fig 8 -scale -cache-scale 128), complete pairs go to as many
// threads as fit — no panic, no thread with a half pair.
func TestDuelMapDegenerateGeometry(t *testing.T) {
	const sets, threads = 128, 128 // need = 2*128 > 128 sets
	m := newDuelMap(sets, threads, 1, 42)
	perThread := map[int][2]int{}
	for s := 0; s < sets; s++ {
		switch m.role(s) {
		case leaderSRRIP:
			c := perThread[m.owner(s)]
			c[0]++
			perThread[m.owner(s)] = c
		case leaderBRRIP:
			c := perThread[m.owner(s)]
			c[1]++
			perThread[m.owner(s)] = c
		}
	}
	if len(perThread) != sets/2 {
		t.Fatalf("%d threads own leaders, want %d (as many complete pairs as fit)", len(perThread), sets/2)
	}
	for tid, c := range perThread {
		if c[0] != 1 || c[1] != 1 {
			t.Fatalf("thread %d has %d SRRIP / %d BRRIP leaders, want a complete 1+1 pair", tid, c[0], c[1])
		}
	}
	// The boundary case — leaders exactly fill the cache — keeps every
	// thread's pair (the 128-core reference sweep at -cache-scale 64).
	full := newDuelMap(256, 128, 1, 42)
	owners := map[int]bool{}
	for s := 0; s < 256; s++ {
		if full.role(s) == follower {
			t.Fatal("boundary geometry should dedicate every set")
		}
		owners[full.owner(s)] = true
	}
	if len(owners) != 128 {
		t.Fatalf("%d owning threads at the boundary, want 128", len(owners))
	}
}

func TestDuelMapDeterministic(t *testing.T) {
	a := newDuelMap(512, 2, 8, 99)
	b := newDuelMap(512, 2, 8, 99)
	for s := range a.code {
		if a.code[s] != b.code[s] {
			t.Fatal("duel maps with identical seeds differ")
		}
	}
}

func TestPSELSaturation(t *testing.T) {
	p := newPSEL(10)
	for i := 0; i < 5000; i++ {
		p.srripMiss()
	}
	if p.value != 1023 {
		t.Fatalf("PSEL saturated at %d, want 1023", p.value)
	}
	if !p.preferBRRIP() {
		t.Fatal("saturated-high PSEL should prefer BRRIP")
	}
	for i := 0; i < 5000; i++ {
		p.brripMiss()
	}
	if p.value != 0 {
		t.Fatalf("PSEL floored at %d, want 0", p.value)
	}
	if p.preferBRRIP() {
		t.Fatal("floored PSEL should prefer SRRIP")
	}
}

func TestPSELThreshold(t *testing.T) {
	p := newPSEL(10)
	for i := 0; i < 511; i++ {
		p.srripMiss()
	}
	if p.preferBRRIP() {
		t.Fatal("below threshold should still prefer SRRIP")
	}
	p.srripMiss()
	if !p.preferBRRIP() {
		t.Fatal("at threshold 512 should prefer BRRIP")
	}
}

// thrashSet drives a cyclic working set far larger than one set's capacity
// through every set of the cache, the canonical pattern where BRRIP wins.
func thrashCache(c *cache.Cache, core int, blocks uint64, rounds int) (hits, accesses uint64) {
	sets := uint64(c.Config().Geometry.Sets)
	for r := 0; r < rounds; r++ {
		for b := uint64(0); b < blocks; b++ {
			a := demand(b*sets, core, 0xBAD) // all land in set 0's... no: spread below
			a.Block = b                      // consecutive blocks spread across sets
			if res := c.Access(a); res.Hit {
				hits++
			}
			accesses++
		}
	}
	return hits, accesses
}

func TestDRRIPLearnsBRRIPUnderThrash(t *testing.T) {
	g := geom(64, 4, 1)
	p := newTADRRIP(g, Options{Seed: 3}, true, 8, false)
	c := newCache(t, g, p)
	// Working set = 4x cache capacity, cyclic: SRRIP leader sets miss every
	// time, BRRIP leaders keep a trickle, so PSEL must drift toward BRRIP.
	thrashCache(c, 0, uint64(4*g.Blocks()), 40)
	if !p.PreferBRRIP(0) {
		t.Fatal("DRRIP failed to learn BRRIP on a thrashing working set")
	}
}

func TestDRRIPStaysSRRIPOnFriendlyWorkload(t *testing.T) {
	g := geom(64, 4, 1)
	p := newTADRRIP(g, Options{Seed: 3}, true, 8, false)
	c := newCache(t, g, p)
	// Working set = half the cache: everyone hits after warm-up; PSEL stays low.
	thrashCache(c, 0, uint64(g.Blocks()/2), 50)
	if p.PreferBRRIP(0) {
		t.Fatal("DRRIP switched to BRRIP on a cache-friendly workload")
	}
}

// thrashAndFit runs 60 rounds in which core 0 sweeps a cyclic working set
// of four times the cache and core 1 one of an eighth of it.
func thrashAndFit(c *cache.Cache) {
	blocks := uint64(c.Config().Geometry.Blocks())
	for round := 0; round < 60; round++ {
		for b := uint64(0); b < 4*blocks; b++ {
			c.Access(demand(1<<30|b, 0, 0xA))
			if b < blocks/8 {
				c.Access(demand(2<<30|b, 1, 0xB))
			}
		}
	}
}

func TestTADRRIPPerThreadDecisions(t *testing.T) {
	// Thread 0 thrashes, thread 1 is cache friendly; TA-DRRIP must learn
	// BRRIP for thread 0 only. This is the 2-core regime where the paper
	// concedes hit/miss learning still works.
	g := geom(256, 4, 2)
	p := NewTADRRIP(g, Options{Seed: 11}, 16, false)
	thrashAndFit(newCache(t, g, p))
	if !p.PreferBRRIP(0) {
		t.Fatal("TA-DRRIP did not learn BRRIP for the thrashing thread")
	}
	if p.PreferBRRIP(1) {
		t.Fatal("TA-DRRIP wrongly learned BRRIP for the friendly thread")
	}
}

// TestDRRIPSharesOneSelector runs TestTADRRIPPerThreadDecisions' workload
// under DRRIP: one selector, trained by both cores' leader-set misses,
// decides for both, so the friendly core follows the thrashing one to
// BRRIP where TA-DRRIP keeps it on SRRIP.
func TestDRRIPSharesOneSelector(t *testing.T) {
	g := geom(256, 4, 2)
	p := newTADRRIP(g, Options{Seed: 11}, true, 16, false)
	c := newCache(t, g, p)
	thrashAndFit(c)
	if !p.PreferBRRIP(0) || !p.PreferBRRIP(1) {
		t.Fatalf("DRRIP prefers BRRIP for core 0: %v, core 1: %v; want both", p.PreferBRRIP(0), p.PreferBRRIP(1))
	}
	// The friendly core's fills into follower sets go in distant, but for
	// BRRIP's 1 in 32.
	distant, total := 0, 0
	for b := uint64(0); b < 1024; b++ {
		block := 3<<30 | b
		c.Access(demand(block, 1, 0xB))
		set := c.SetOf(block)
		if w, ok := c.Lookup(block); ok && p.duel.role(set) == follower {
			total++
			if p.RRPVAt(set, w) == MaxRRPV {
				distant++
			}
		}
	}
	if total == 0 || float64(distant)/float64(total) < 0.9 {
		t.Fatalf("core 1 inserted %d of %d follower fills distant, want ~31/32", distant, total)
	}
}

func TestTADRRIPForcedBRRIP(t *testing.T) {
	g := geom(64, 4, 2)
	forced := []bool{true, false}
	p := NewTADRRIP(g, Options{Seed: 1, ForcedBRRIP: forced}, 0, false)
	c := newCache(t, g, p)
	if p.Name() != "tadrrip-forced" {
		t.Fatalf("name = %q, want tadrrip-forced", p.Name())
	}
	// Count distant insertions of the forced thread in follower sets: with
	// forced BRRIP, all but 1/32 of fills are at MaxRRPV.
	distant, total := 0, 0
	for b := uint64(0); b < 2048; b++ {
		c.Access(demand(b, 0, 0))
		set := c.SetOf(b)
		if w, ok := c.Lookup(b); ok && p.duel.role(set) == follower {
			total++
			if p.RRPVAt(set, w) == MaxRRPV {
				distant++
			}
		}
	}
	if total == 0 {
		t.Fatal("no follower-set fills observed")
	}
	frac := float64(distant) / float64(total)
	if frac < 0.9 {
		t.Fatalf("forced thread inserted distant only %.2f of fills, want ~31/32", frac)
	}
}

func TestTADRRIPBypassVariant(t *testing.T) {
	g := geom(64, 4, 1)
	p := NewTADRRIP(g, Options{Seed: 1, ForcedBRRIP: []bool{true}}, 0, true)
	c := newCache(t, g, p)
	for b := uint64(0); b < 4096; b++ {
		c.Access(demand(b, 0, 0))
	}
	st := c.Stats()
	if st.Bypasses[0] == 0 {
		t.Fatal("bypass variant never bypassed under forced BRRIP")
	}
	// Roughly 31/32 of fills bypass.
	frac := float64(st.Bypasses[0]) / float64(st.DemandMisses[0])
	if frac < 0.9 || frac > 1.0 {
		t.Fatalf("bypass fraction = %.3f, want ~0.97", frac)
	}
	if p.Name() != "tadrrip-bp" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestTADRRIPSD128Variant(t *testing.T) {
	g := geom(16384, 16, 1)
	pol, err := New("tadrrip-sd128", g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ta := pol.(*TADRRIP)
	if ta.SD() != 128 {
		t.Fatalf("SD = %d, want 128", ta.SD())
	}
}
