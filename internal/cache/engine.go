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
// in internal/core builds on it too, which is why it is exported.
//
// The engine lives in this package (rather than internal/policy, where the
// policies that embed it are defined) so that the cache's per-access fast
// path can invoke Promote/VictimFor/Invalidate as concrete methods instead
// of through the ReplacementPolicy interface — see HotProfile.
//
// The engine also tracks line validity (learned from OnFill/OnEvict
// callbacks) so that invalid ways are consumed before any valid line is
// victimised, matching real hardware fill behaviour. Validity is one
// 64-bit word per set (bit w = way w, the same packed layout the Cache
// keeps for its own valid/dirty/prefetch state): marking a fill or an
// eviction is a single unconditional bit operation, a full set is one
// compare against the all-ways mask, and the lowest-indexed invalid way
// falls out of a trailing-zeros count instead of a scan.
//
// Victim selection is a single bucket scan per call. The per-set hint — an
// upper bound on the set's maximum RRPV — lets the scan stop at the first
// way that reaches the bound, in the common post-aging state the first
// distant line. The summaries are hints, never semantics: decisions are
// bit-identical to the original retry/aging formulation
// (TestVictimMatchesReference).
type Engine struct {
	geom     Geometry
	rrpv     []uint8
	valid    []uint64 // per set: valid-way bitset
	waysMask uint64   // low geom.Ways bits set
	hint     []uint8  // per set: upper bound on the max RRPV of the set

	// masks holds the per-core fill way masks set through SetWayMask
	// (WayMasker); nil until the first mask arrives, so unclustered runs
	// pay only one nil check per victim selection. fullMask caches the
	// all-ways mask used for cores that are still unrestricted.
	masks    []uint64
	fullMask uint64
}

// NewEngine builds an engine for the given cache geometry.
func NewEngine(g Geometry) Engine {
	return Engine{
		geom:     g,
		rrpv:     make([]uint8, g.Sets*g.Ways),
		valid:    make([]uint64, g.Sets),
		waysMask: uint64(1)<<uint(g.Ways) - 1,
		hint:     make([]uint8, g.Sets),
	}
}

func (e *Engine) idx(set, way int) int { return set*e.geom.Ways + way }

// Promote sets the line to near-immediate re-reference (RRPV 0). The set's
// max-RRPV hint is left alone: it is an upper bound, and lowering one value
// cannot raise the maximum.
func (e *Engine) Promote(set, way int) { e.rrpv[e.idx(set, way)] = 0 }

// SetRRPV records the insertion value of a fresh fill and marks it valid.
func (e *Engine) SetRRPV(set, way int, v uint8) {
	e.rrpv[e.idx(set, way)] = v
	e.valid[set] |= 1 << uint(way)
	if v > e.hint[set] {
		e.hint[set] = v
	}
}

// Invalidate marks a way empty (called from OnEvict).
func (e *Engine) Invalidate(set, way int) {
	e.valid[set] &^= 1 << uint(way)
}

// RRPVAt exposes a line's current RRPV (tests and diagnostics).
func (e *Engine) RRPVAt(set, way int) uint8 { return e.rrpv[e.idx(set, way)] }

// Victim returns the way to replace in set: the lowest-indexed invalid way
// if one exists, otherwise the lowest-indexed way holding the set's maximum
// RRPV, after aging every line up to the distant value — the same line the
// classical "scan for MaxRRPV, age, retry" loop converges on, found in one
// pass. Aging adds MaxRRPV-max to every way at once, which is exactly what
// the retry loop's repeated +1 rounds amount to (no line can pass MaxRRPV,
// because none exceeds the set maximum).
func (e *Engine) Victim(set int) int {
	ways := e.geom.Ways
	base := set * ways
	if vm := e.valid[set]; vm != e.waysMask {
		return bits.TrailingZeros64(^vm & e.waysMask)
	}
	bound := e.hint[set]
	maxW := 0
	maxV := e.rrpv[base]
	if maxV < bound {
		for w := 1; w < ways; w++ {
			if v := e.rrpv[base+w]; v > maxV {
				maxW, maxV = w, v
				if v == bound {
					break // nothing in the set can exceed the hint
				}
			}
		}
	}
	if delta := MaxRRPV - maxV; delta > 0 {
		for w := 0; w < ways; w++ {
			e.rrpv[base+w] += delta
		}
	}
	e.hint[set] = MaxRRPV
	return maxW
}

// SetWayMask implements WayMasker: it restricts which ways core's fills may
// victimise (bit w = way w allowed; 0 = unrestricted). Every RRIP-family
// policy embeds Engine, so they all inherit mask support; the clustering
// manager in internal/cluster is the caller.
func (e *Engine) SetWayMask(core int, mask uint64) {
	if e.masks == nil {
		e.masks = make([]uint64, e.geom.Cores)
		e.fullMask = (uint64(1) << e.geom.Ways) - 1
	}
	e.masks[core] = mask & ((uint64(1) << e.geom.Ways) - 1)
}

// VictimFor is Victim with way-mask enforcement: when the filling core has
// a way mask, the victim is chosen among the masked ways only; otherwise it
// defers to Victim. Call sites in the concrete policies route every
// FillDecision through here so partitioning works uniformly across the
// RRIP family and ADAPT; the cache's fast path calls it directly for
// policies whose FillDecision is exactly this (HotProfile.PlainVictim).
func (e *Engine) VictimFor(a *Access, set int) int {
	if e.masks == nil {
		return e.Victim(set)
	}
	mask := e.masks[a.Core]
	if mask == 0 || mask == e.fullMask {
		return e.Victim(set)
	}
	return e.victimMasked(set, mask)
}

// victimMasked is Victim restricted to the ways in mask: the lowest-indexed
// invalid masked way if one exists, otherwise the lowest-indexed masked way
// holding the masked maximum RRPV after aging the masked ways up to distant.
// Aging touches only the masked partition — the other clusters' re-reference
// state must not be perturbed by this cluster's misses, that is the whole
// point of partitioning. The set's hint rises to MaxRRPV (still a valid
// upper bound). Panics if the chosen way escapes the mask: that invariant is
// what the enforcement tests pin.
func (e *Engine) victimMasked(set int, mask uint64) int {
	ways := e.geom.Ways
	base := set * ways
	if inv := ^e.valid[set] & mask; inv != 0 {
		return bits.TrailingZeros64(inv) // lowest-indexed invalid masked way
	}
	maxW := -1
	var maxV uint8
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if v := e.rrpv[base+w]; maxW < 0 || v > maxV {
			maxW, maxV = w, v
		}
	}
	if maxW < 0 || mask&(1<<uint(maxW)) == 0 {
		panic("cache: masked victim selection escaped the way mask")
	}
	if delta := MaxRRPV - maxV; delta > 0 {
		for m := mask; m != 0; m &= m - 1 {
			e.rrpv[base+bits.TrailingZeros64(m)] += delta
		}
	}
	e.hint[set] = MaxRRPV
	return maxW
}

// HotProfile declares which of a replacement policy's per-access callbacks
// are exactly the Engine's common RRIP-family behaviour, so the cache can
// execute them as direct concrete-method calls instead of interface
// dispatch. The profile is captured once at construction (New); the flags
// are promises, each equivalent to a specific callback body:
//
//	PlainHit:    OnHit(a, set, way)  ≡  if a.Demand { Engine.Promote(set, way) }
//	SkipMiss:    OnMiss(a, set)      ≡  no-op
//	PlainVictim: FillDecision(a, set) ≡ (Engine.VictimFor(a, set), true)
//	PlainEvict:  OnEvict(set, way, _) ≡ Engine.Invalidate(set, way)
//
// OnFill is never devirtualized: the insertion value is the policy's whole
// contribution, so the fill boundary keeps its interface call. A flag
// claimed by a policy whose callback does more silently changes decisions —
// the differential dispatch tests (internal/policy) pin every registered
// policy's profile against the pure interface path. The zero profile means
// full interface dispatch.
type HotProfile struct {
	// Engine is the policy's embedded RRIP engine; required whenever any
	// of PlainHit/PlainVictim/PlainEvict is set.
	Engine *Engine
	// PlainHit: OnHit only promotes demand hits.
	PlainHit bool
	// SkipMiss: OnMiss is a no-op.
	SkipMiss bool
	// PlainVictim: FillDecision always allocates at the engine's
	// (mask-aware) victim.
	PlainVictim bool
	// PlainEvict: OnEvict only invalidates the engine's way state.
	PlainEvict bool
}

// HotPather is the optional capability interface a replacement policy
// implements to opt its per-access callbacks into devirtualized dispatch.
// Policies that don't implement it (LRU, Random, external policies) get the
// reference interface path for every callback.
type HotPather interface {
	Hot() HotProfile
}
