package cache

import (
	"testing"

	"repro/internal/rng"
)

// refEngine is the pre-optimization victim-selection algorithm, kept
// verbatim as the semantic reference: lowest-indexed invalid way, else scan
// for MaxRRPV and age the whole set by +1 rounds until one appears.
type refEngine struct {
	geom  Geometry
	rrpv  []uint8
	valid []bool
}

func newRefEngine(g Geometry) refEngine {
	n := g.Sets * g.Ways
	return refEngine{geom: g, rrpv: make([]uint8, n), valid: make([]bool, n)}
}

func (e *refEngine) idx(set, way int) int { return set*e.geom.Ways + way }

func (e *refEngine) promote(set, way int) { e.rrpv[e.idx(set, way)] = 0 }

func (e *refEngine) setRRPV(set, way int, v uint8) {
	i := e.idx(set, way)
	e.rrpv[i] = v
	e.valid[i] = true
}

func (e *refEngine) invalidate(set, way int) { e.valid[e.idx(set, way)] = false }

func (e *refEngine) victim(set int) int {
	base := set * e.geom.Ways
	for w := 0; w < e.geom.Ways; w++ {
		if !e.valid[base+w] {
			return w
		}
	}
	for {
		for w := 0; w < e.geom.Ways; w++ {
			if e.rrpv[base+w] == MaxRRPV {
				return w
			}
		}
		for w := 0; w < e.geom.Ways; w++ {
			e.rrpv[base+w]++
		}
	}
}

// TestVictimMatchesReference drives the optimized engine and the reference
// through a long random schedule of promote/fill/invalidate/victim
// operations and requires bit-identical decisions and RRPV state at every
// step. This is the guard that the word-at-a-time scan changed
// performance, not semantics. The engine reads validity from the caller, so
// the test keeps the valid words a cache would. The associativities cover
// one word, several words, and a last word that holds 1, 3, 4 or 8 ways.
func TestVictimMatchesReference(t *testing.T) {
	for _, g := range []Geometry{
		{Sets: 16, Ways: 4, Cores: 2},
		{Sets: 64, Ways: 16, Cores: 8},
		{Sets: 8, Ways: 3, Cores: 1}, // odd associativity
		{Sets: 8, Ways: 1, Cores: 1},
		{Sets: 16, Ways: 8, Cores: 2},
		{Sets: 16, Ways: 12, Cores: 4},
		{Sets: 16, Ways: 24, Cores: 4}, // Figure 7's larger caches
		{Sets: 16, Ways: 32, Cores: 4},
		{Sets: 8, Ways: 64, Cores: 4}, // the widest valid word
	} {
		e := NewEngine(g)
		valid := make([]uint64, g.Sets)
		ref := newRefEngine(g)
		src := rng.New(0xE4617E5 ^ uint64(g.Sets*g.Ways))
		for step := 0; step < 20000; step++ {
			set := src.Intn(g.Sets)
			way := src.Intn(g.Ways)
			switch src.Intn(10) {
			case 0:
				e.Promote(set, way)
				ref.promote(set, way)
			case 1:
				valid[set] &^= 1 << uint(way)
				ref.invalidate(set, way)
			case 2, 3, 4:
				v := uint8(src.Intn(MaxRRPV + 1))
				e.SetRRPV(set, way, v)
				valid[set] |= 1 << uint(way)
				ref.setRRPV(set, way, v)
			default:
				// The common churn: pick a victim, evict it, refill.
				got, want := e.Victim(set, valid[set]), ref.victim(set)
				if got != want {
					t.Fatalf("geom %+v step %d: Victim(%d) = %d, reference %d", g, step, set, got, want)
				}
				v := uint8(MaxRRPV - src.Intn(2)) // SRRIP/BRRIP-style insertions
				e.SetRRPV(set, got, v)
				valid[set] |= 1 << uint(got)
				ref.setRRPV(set, got, v)
			}
			for w := 0; w < g.Ways; w++ {
				if got, want := e.RRPVAt(set, w), ref.rrpv[ref.idx(set, w)]; valid[set]&(1<<uint(w)) != 0 && got != want {
					t.Fatalf("geom %+v step %d: rrpv[%d,%d] = %d, reference %d", g, step, set, w, got, want)
				}
			}
		}
	}
}

// TestVictimConsumesInvalidWaysFirst pins the fill-before-evict behaviour.
func TestVictimConsumesInvalidWaysFirst(t *testing.T) {
	g := Geometry{Sets: 4, Ways: 4, Cores: 1}
	e := NewEngine(g)
	var valid uint64
	for w := 0; w < 4; w++ {
		if got := e.Victim(0, valid); got != w {
			t.Fatalf("victim %d on a cold set, want %d", got, w)
		}
		e.SetRRPV(0, w, MaxRRPV-1)
		valid |= 1 << uint(w)
	}
	// Full set now: victim must age to distant and pick way 0.
	if got := e.Victim(0, valid); got != 0 {
		t.Fatalf("victim %d on a full uniform set, want 0", got)
	}
	for w := 0; w < 4; w++ {
		if e.RRPVAt(0, w) != MaxRRPV {
			t.Fatalf("aging did not saturate way %d", w)
		}
	}
	// An invalid middle way is the next victim again.
	if got := e.Victim(0, valid&^(1<<2)); got != 2 {
		t.Fatalf("victim %d with way 2 invalid, want 2", got)
	}
}
