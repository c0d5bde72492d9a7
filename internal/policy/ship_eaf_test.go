package policy

import (
	"testing"

	"repro/internal/cache"
)

func TestSignatureStableAndBounded(t *testing.T) {
	seen := map[uint16]bool{}
	for pc := uint64(0x400000); pc < 0x400000+4096; pc += 4 {
		s := Signature(pc)
		if s != Signature(pc) {
			t.Fatal("signature not deterministic")
		}
		seen[s] = true
	}
	// 1024 distinct PCs should spread over many signatures.
	if len(seen) < 512 {
		t.Fatalf("only %d distinct signatures from 1024 PCs; hash too weak", len(seen))
	}
}

// trainingGeometry returns a geometry where every set is sampled for SHiP
// training (sets <= 32 forces full sampling), making training observable.
func trainingGeometry() cache.Geometry { return geom(32, 4, 1) }

func TestSHiPLearnsDeadPC(t *testing.T) {
	g := trainingGeometry()
	p := NewSHiP(g, Options{Seed: 2})
	c := newCache(t, g, p)
	const deadPC = 0x1234
	// A streaming PC whose blocks are never reused: SHCT must decay to 0.
	for b := uint64(0); b < 8192; b++ {
		c.Access(demand(b, 0, deadPC))
	}
	if v := p.SHCTValue(0, Signature(deadPC)); v != 0 {
		t.Fatalf("dead PC SHCT = %d, want 0", v)
	}
	// Now its fills are predicted distant.
	before := p.distantPredictions
	c.Access(demand(1<<40, 0, deadPC))
	if p.distantPredictions != before+1 {
		t.Fatal("fill by dead PC not predicted distant")
	}
}

func TestSHiPLearnsReusedPC(t *testing.T) {
	g := trainingGeometry()
	p := NewSHiP(g, Options{Seed: 2})
	c := newCache(t, g, p)
	const hotPC = 0x777
	// Blocks filled by hotPC are re-referenced promptly.
	for round := 0; round < 50; round++ {
		for b := uint64(0); b < 64; b++ {
			c.Access(demand(b, 0, hotPC))
		}
	}
	if v := p.SHCTValue(0, Signature(hotPC)); v == 0 {
		t.Fatal("reused PC decayed to 0; positive training broken")
	}
}

func TestSHiPBypassVariantBypasses(t *testing.T) {
	// 256 sets: 32 sampled for training, 224 followers where bypass applies.
	g := geom(256, 4, 1)
	p := NewSHiP(g, Options{Seed: 2})
	p.bypass = true
	c := newCache(t, g, p)
	const deadPC = 0x9999
	for b := uint64(0); b < 32768; b++ {
		c.Access(demand(b, 0, deadPC))
	}
	if c.Stats().Bypasses[0] == 0 {
		t.Fatal("ship-bp never bypassed a dead-PC stream")
	}
	if p.Name() != "ship-bp" {
		t.Fatalf("name = %q", p.Name())
	}
	// Training sets keep allocating: the cache is not empty.
	if c.ValidLines() == 0 {
		t.Fatal("ship-bp starved even its training sets")
	}
}

func TestSHiPDistantFractionTracksPredictions(t *testing.T) {
	g := trainingGeometry()
	p := NewSHiP(g, Options{Seed: 2})
	c := newCache(t, g, p)
	for b := uint64(0); b < 2048; b++ {
		c.Access(demand(b, 0, 0x40))
	}
	f := p.DistantFraction()
	if f < 0 || f > 1 {
		t.Fatalf("distant fraction %v out of [0,1]", f)
	}
}

func TestSHiPPerCoreSHCTIsolated(t *testing.T) {
	g := geom(32, 4, 2)
	p := NewSHiP(g, Options{Seed: 2})
	c := newCache(t, g, p)
	const pc = 0x5150
	// Core 0 streams (kills the signature); core 1 reuses (strengthens it).
	for b := uint64(0); b < 4096; b++ {
		c.Access(demand(b, 0, pc))
		c.Access(demand(1<<30|(b%32), 1, pc))
	}
	if v := p.SHCTValue(0, Signature(pc)); v != 0 {
		t.Fatalf("core 0 SHCT = %d, want 0", v)
	}
	if v := p.SHCTValue(1, Signature(pc)); v == 0 {
		t.Fatal("core 1 SHCT decayed despite reuse; per-core isolation broken")
	}
}

func TestEAFSecondChanceInsertion(t *testing.T) {
	g := geom(16, 2, 1)
	p := NewEAF(g, Options{})
	c := newCache(t, g, p)
	// Fill set 0 beyond capacity so block 0 gets evicted.
	c.Access(demand(0, 0, 0))
	c.Access(demand(16, 0, 0))
	c.Access(demand(32, 0, 0)) // evicts one of them (both distant; way 0 = block 0)
	if !p.Contains(0) && !p.Contains(16) {
		t.Fatal("no evicted address landed in the filter")
	}
	// Re-fetch an evicted block: it must be inserted near-immediate (RRPV 2).
	var evicted uint64
	if _, ok := c.Lookup(0); !ok {
		evicted = 0
	} else {
		evicted = 16
	}
	c.Access(demand(evicted, 0, 0))
	w, ok := c.Lookup(evicted)
	if !ok {
		t.Fatal("refetched block not resident")
	}
	if v := p.RRPVAt(c.SetOf(evicted), w); v != MaxRRPV-1 {
		t.Fatalf("refetched block inserted at rrpv %d, want %d", v, MaxRRPV-1)
	}
}

func TestEAFFirstTouchIsDistant(t *testing.T) {
	g := geom(16, 2, 1)
	p := NewEAF(g, Options{})
	c := newCache(t, g, p)
	c.Access(demand(5, 0, 0))
	w, _ := c.Lookup(5)
	if v := p.RRPVAt(c.SetOf(5), w); v != MaxRRPV {
		t.Fatalf("first-touch block inserted at rrpv %d, want %d", v, MaxRRPV)
	}
}

func TestEAFClearsWhenFull(t *testing.T) {
	g := geom(4, 2, 1) // 8 blocks capacity
	p := NewEAF(g, Options{})
	c := newCache(t, g, p)
	// Stream enough blocks to force > 8 evictions.
	for b := uint64(0); b < 64; b++ {
		c.Access(demand(b, 0, 0))
	}
	if p.Clears() == 0 {
		t.Fatal("EAF filter never cleared despite eviction pressure")
	}
}

func TestEAFBypassVariant(t *testing.T) {
	g := geom(16, 2, 1)
	p := NewEAF(g, Options{})
	p.bypass = true
	c := newCache(t, g, p)
	for b := uint64(0); b < 512; b++ {
		c.Access(demand(b, 0, 0))
	}
	if c.Stats().Bypasses[0] == 0 {
		t.Fatal("eaf-bp never bypassed a streaming workload")
	}
	if p.Name() != "eaf-bp" {
		t.Fatalf("name = %q", p.Name())
	}
	// Distant fraction on a pure stream should be very high (~paper's 93%+).
	if f := p.DistantFraction(); f < 0.8 {
		t.Fatalf("distant fraction %.2f unexpectedly low for a stream", f)
	}
}

func TestEAFBloomNoFalseNegatives(t *testing.T) {
	g := geom(64, 4, 1)
	p := NewEAF(g, Options{})
	// Directly exercise the Bloom filter: everything added must test true
	// until a clear happens.
	for b := uint64(0); b < 100; b++ {
		p.bloomAdd(b)
		if !p.bloomTest(b) {
			t.Fatalf("false negative for block %d", b)
		}
	}
	for b := uint64(0); b < 100; b++ {
		if !p.bloomTest(b) {
			t.Fatalf("false negative for block %d after more insertions", b)
		}
	}
}

func TestEAFBloomFalsePositiveRateBounded(t *testing.T) {
	g := geom(1024, 16, 1) // capacity 16384, filter 8 bits/addr
	p := NewEAF(g, Options{})
	for b := uint64(0); b < 16000; b++ {
		p.bloomAdd(b)
	}
	fp := 0
	const probes = 10000
	for b := uint64(1 << 32); b < 1<<32+probes; b++ {
		if p.bloomTest(b) {
			fp++
		}
	}
	// k=4, m/n=8 -> theoretical ~2.4% false positives; allow generous slack.
	if rate := float64(fp) / probes; rate > 0.10 {
		t.Fatalf("Bloom false-positive rate %.3f too high", rate)
	}
}
