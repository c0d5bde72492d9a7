package cache

import (
	"testing"

	"repro/internal/rng"
)

// refVictimMasked is the brute-force reference for masked victim selection:
// lowest-indexed invalid masked way, else lowest-indexed masked way holding
// the masked maximum RRPV.
func refVictimMasked(e *Engine, set int, valid, mask uint64) int {
	for w := 0; w < e.geom.Ways; w++ {
		if mask&(1<<uint(w)) != 0 && valid&(1<<uint(w)) == 0 {
			return w
		}
	}
	best, bestV := -1, -1
	for w := 0; w < e.geom.Ways; w++ {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		if v := int(e.RRPVAt(set, w)); v > bestV {
			best, bestV = w, v
		}
	}
	return best
}

// TestVictimMaskedMatchesReference drives a random schedule of fills,
// promotions, invalidations and masked victim selections and requires the
// engine's choice to equal the brute-force reference — and to stay inside
// the mask — at every step, for several mask shapes.
func TestVictimMaskedMatchesReference(t *testing.T) {
	g := Geometry{Sets: 32, Ways: 16, Cores: 4}
	masks := []uint64{0x0003, 0x00F0, 0xFF00, 0x8421, 0xFFFF}
	eng := NewEngine(g)
	e := &eng
	valid := make([]uint64, g.Sets)
	src := rng.New(0xC1A55E5)
	for step := 0; step < 20000; step++ {
		set := src.Intn(g.Sets)
		switch src.Intn(8) {
		case 0:
			e.Promote(set, src.Intn(g.Ways))
		case 1:
			valid[set] &^= 1 << uint(src.Intn(g.Ways))
		case 2, 3:
			way := src.Intn(g.Ways)
			e.SetRRPV(set, way, uint8(src.Intn(MaxRRPV+1)))
			valid[set] |= 1 << uint(way)
		default:
			mask := masks[src.Intn(len(masks))]
			want := refVictimMasked(e, set, valid[set], mask)
			got := e.VictimFor(set, valid[set], mask)
			if got != want {
				t.Fatalf("step %d: VictimFor(%d, %#x) = %d, reference %d", step, set, mask, got, want)
			}
			if mask&(1<<uint(got)) == 0 {
				t.Fatalf("step %d: victim way %d escaped mask %#x", step, got, mask)
			}
			// Churn like a real fill so the state keeps evolving.
			e.SetRRPV(set, got, uint8(MaxRRPV-src.Intn(2)))
			valid[set] |= 1 << uint(got)
		}
	}
}

// TestVictimForUnmaskedIsVictim: with every way a candidate, VictimFor is
// Victim, and the masked search given the all-ways mask must agree with it
// too, so a partition covering the whole set changes nothing.
func TestVictimForUnmaskedIsVictim(t *testing.T) {
	g := Geometry{Sets: 16, Ways: 8, Cores: 2}
	a, b, c := NewEngine(g), NewEngine(g), NewEngine(g)
	valid := make([]uint64, g.Sets)
	src := rng.New(7)
	for step := 0; step < 5000; step++ {
		set := src.Intn(g.Sets)
		if src.Intn(3) == 0 {
			way, v := src.Intn(g.Ways), uint8(src.Intn(MaxRRPV+1))
			for _, e := range []*Engine{&a, &b, &c} {
				e.SetRRPV(set, way, v)
			}
			valid[set] |= 1 << uint(way)
			continue
		}
		va := a.Victim(set, valid[set])
		vb := b.VictimFor(set, valid[set], 0xFF)
		vc := c.victimMasked(set, valid[set], 0xFF)
		if va != vb || va != vc {
			t.Fatalf("step %d: Victim %d, VictimFor %d, all-ways masked search %d", step, va, vb, vc)
		}
		for _, e := range []*Engine{&a, &b, &c} {
			e.SetRRPV(set, va, MaxRRPV-1)
		}
		valid[set] |= 1 << uint(va)
	}
}

// TestMaskAgingIsPartitionLocal: aging triggered by a masked victim search
// must not perturb RRPVs outside the mask.
func TestMaskAgingIsPartitionLocal(t *testing.T) {
	g := Geometry{Sets: 1, Ways: 8, Cores: 2}
	e := NewEngine(g)
	for w := 0; w < 8; w++ {
		e.SetRRPV(0, w, 0) // all near-immediate: any victim search must age
	}
	if got := e.VictimFor(0, 0xFF, 0x0F); got >= 4 {
		t.Fatalf("victim way %d outside mask 0x0F", got)
	}
	for w := 4; w < 8; w++ {
		if e.RRPVAt(0, w) != 0 {
			t.Fatalf("aging leaked outside the mask: way %d RRPV %d, want 0", w, e.RRPVAt(0, w))
		}
	}
	for w := 0; w < 4; w++ {
		if e.RRPVAt(0, w) != MaxRRPV {
			t.Fatalf("masked way %d not aged to distant: RRPV %d", w, e.RRPVAt(0, w))
		}
	}
}
