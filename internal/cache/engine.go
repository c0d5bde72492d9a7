package cache

import "math/bits"

// MaxRRPV is the saturating re-reference prediction value (2-bit RRPV) used
// by every RRIP-family policy. It lives here, next to the Engine, so the
// cache's devirtualized fast path and the policies share one definition;
// internal/policy re-exports it.
const MaxRRPV = 3

// Engine is the shared mechanical core of every RRIP-family policy: 2-bit
// re-reference prediction values per line, hit promotion to 0, and victim
// selection by searching for MaxRRPV with aging. Policies embed it and
// differ only in the insertion value they choose per fill. The ADAPT policy
// in internal/core builds on it too, and so does ADAPT's footprint monitor
// (core.Sampler), whose 16-entry arrays are the sets of an engine of their
// own; that is why it is exported.
//
// The engine lives in this package (rather than internal/policy, where the
// policies that embed it are defined) so that the cache's per-access fast
// path can invoke Promote/VictimFor as concrete methods instead of through
// the ReplacementPolicy interface — see HotProfile.
//
// Line validity and the filling core's candidate ways are the cache's
// state, passed in to every victim search as bitsets (bit w = way w), so
// the engine keeps only what RRIP itself decides. Its OnHit (promote) and
// FillDecision (allocate at VictimFor) are the family's defaults, which an
// embedding policy inherits unless it declares its own.
//
// Each set's RRPVs are packed eight to a uint64 word, way w in byte w%8
// of the set's word w/8, so victim selection on a full set reads eight
// ways at a time. The bytes past the last way pad the set's last word;
// they stay zero, take no part in a search and are never aged. Decisions
// are bit-identical to the original retry/aging formulation
// (TestVictimMatchesReference).
type Engine struct {
	geom     Geometry
	rrpv     []uint64 // packed RRPVs, words per set
	words    int      // words per set: geom.Ways/8 rounded up
	waysMask uint64   // low geom.Ways bits set
	tail     uint64   // the bytes of a set's last word that hold ways
}

// NewEngine builds an engine for the given cache geometry.
func NewEngine(g Geometry) Engine {
	words := (g.Ways + 7) / 8
	return Engine{
		geom:     g,
		rrpv:     make([]uint64, g.Sets*words),
		words:    words,
		waysMask: uint64(1)<<uint(g.Ways) - 1,
		tail:     ^uint64(0) >> uint(8*(8*words-g.Ways)),
	}
}

// slot returns the index of the word holding a line's RRPV and the line's
// bit offset in it.
func (e *Engine) slot(set, way int) (int, uint) { return set*e.words + way>>3, uint(way&7) * 8 }

// Promote sets the line to near-immediate re-reference (RRPV 0).
func (e *Engine) Promote(set, way int) { e.SetRRPV(set, way, 0) }

// SetRRPV records the insertion value of a fresh fill.
func (e *Engine) SetRRPV(set, way int, v uint8) {
	i, sh := e.slot(set, way)
	e.rrpv[i] = e.rrpv[i]&^(0xFF<<sh) | uint64(v)<<sh
}

// RRPVAt exposes a line's current RRPV (tests and diagnostics).
func (e *Engine) RRPVAt(set, way int) uint8 {
	i, sh := e.slot(set, way)
	return uint8(e.rrpv[i] >> sh)
}

// OnHit is the RRIP family's default hit callback: promote the line.
func (e *Engine) OnHit(a *Access, set, way int) { e.Promote(set, way) }

// FillDecision is the RRIP family's default fill decision: always allocate,
// at VictimFor's choice among the candidate ways.
func (e *Engine) FillDecision(a *Access, set int, valid, ways uint64) (int, bool) {
	return e.VictimFor(set, valid, ways), true
}

// lsb has the lowest bit of every byte of a word set.
const lsb = 0x0101010101010101

// Victim returns the way to replace in set, given the set's valid-way
// bitset: the lowest-indexed invalid way if one exists, otherwise the
// lowest-indexed way holding the set's maximum RRPV, after aging every line
// up to the distant value — the same line the classical "scan for MaxRRPV,
// age, retry" loop converges on, found in one pass. Aging adds MaxRRPV-max
// to every way at once, which is exactly what the retry loop's repeated +1
// rounds amount to (no line can pass MaxRRPV, because none exceeds the set
// maximum), so a word's add cannot carry between its bytes.
//
// An RRPV is at most MaxRRPV (binary 11), so bit 1 of a way's byte marks
// the ways at 2 or more, bits 0 and 1 together the ways at MaxRRPV, and
// either bit the ways at 1 or more; the lowest such way in a word is its
// trailing zeros over 8. The scan returns at the first word holding
// MaxRRPV, where nothing ages.
func (e *Engine) Victim(set int, valid uint64) int {
	if valid != e.waysMask {
		return bits.TrailingZeros64(^valid & e.waysMask)
	}
	first := set * e.words
	maxW, maxV := 0, uint64(0) // the lowest way at the highest value below 3
	for i := 0; i < e.words; i++ {
		x := e.rrpv[first+i]
		hi := x >> 1 & lsb
		if top := hi & x; top != 0 {
			return 8*i + bits.TrailingZeros64(top)>>3
		}
		if maxV < 2 && hi != 0 {
			maxW, maxV = 8*i+bits.TrailingZeros64(hi)>>3, 2
		} else if lo := (x | x>>1) & lsb; maxV < 1 && lo != 0 {
			maxW, maxV = 8*i+bits.TrailingZeros64(lo)>>3, 1
		}
	}
	inc, last := (MaxRRPV-maxV)*lsb, first+e.words-1
	for i := first; i < last; i++ {
		e.rrpv[i] += inc
	}
	e.rrpv[last] += inc & e.tail
	return maxW
}

// VictimFor is Victim restricted to the candidate ways: with every way a
// candidate it is Victim itself; with a way mask the victim is chosen among
// the masked ways only. The cache's fast path calls it directly for
// policies that keep the engine's FillDecision (HotProfile.PlainVictim).
func (e *Engine) VictimFor(set int, valid, ways uint64) int {
	if ways == e.waysMask {
		return e.Victim(set, valid)
	}
	return e.victimMasked(set, valid, ways)
}

// victimMasked is Victim restricted to the ways in mask: the lowest-indexed
// invalid masked way if one exists, otherwise the lowest-indexed masked way
// holding the masked maximum RRPV after aging the masked ways up to distant.
// Aging touches only the masked partition — the other clusters' re-reference
// state must not be perturbed by this cluster's misses, that is the whole
// point of partitioning.
func (e *Engine) victimMasked(set int, valid, mask uint64) int {
	if inv := ^valid & mask; inv != 0 {
		return bits.TrailingZeros64(inv) // lowest-indexed invalid masked way
	}
	maxW := -1
	var maxV uint8
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if v := e.RRPVAt(set, w); maxW < 0 || v > maxV {
			maxW, maxV = w, v
		}
	}
	if delta := uint64(MaxRRPV - maxV); delta > 0 {
		for m := mask; m != 0; m &= m - 1 {
			i, sh := e.slot(set, bits.TrailingZeros64(m))
			e.rrpv[i] += delta << sh
		}
	}
	return maxW
}

// HotProfile declares which of a replacement policy's per-access callbacks
// the cache may execute as direct concrete-method calls instead of
// interface dispatch. The profile is captured once at construction (New)
// and names at most one engine.
//
// For the RRIP family, each flag promises that the policy keeps the
// Engine's callback, or one that acts exactly like it in this
// configuration (a bypass-capable FillDecision with bypass off):
//
//	PlainHit:    OnHit        is Engine.OnHit        (promote)
//	PlainVictim: FillDecision is Engine.FillDecision (allocate at VictimFor)
//
// An RRIP policy's OnFill is never devirtualized: the insertion value is
// its whole contribution, so the fill boundary keeps its interface call.
//
// LRU is the one policy whose three callbacks are all devirtualized: it
// always inserts at MRU, so its OnFill is a touch like its OnHit. With LRU
// set, the cache touches on a demand hit, takes LRU.VictimFor on a miss
// and touches on the fill.
//
// A profile that claims more than the policy keeps silently changes
// decisions — the differential dispatch tests (internal/policy) pin every
// registered policy's profile against the pure interface path.
// The zero profile means full interface dispatch.
type HotProfile struct {
	// Engine is the policy's embedded RRIP engine; required whenever
	// either flag is set.
	Engine *Engine
	// PlainHit: the policy keeps Engine.OnHit.
	PlainHit bool
	// PlainVictim: the policy keeps Engine.FillDecision.
	PlainVictim bool
	// LRU is the policy's embedded LRU engine, which then serves every
	// per-access callback. It excludes Engine and the flags.
	LRU *LRUEngine
}

// HotPather is the optional capability interface a replacement policy
// implements to opt its per-access callbacks into devirtualized dispatch.
// Policies that don't implement it (external and test policies) get the
// reference interface path for every callback.
type HotPather interface {
	Hot() HotProfile
}
