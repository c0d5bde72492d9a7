package cache

import "math/bits"

// LRUEngine is the state of true least-recently-used replacement: one
// recency stamp per line and a clock that advances by one per touch. It
// lives here, beside the RRIP Engine, for the same reason: the cache's
// per-access fast path calls Touch and VictimFor as concrete methods
// (HotProfile.LRU) instead of through the ReplacementPolicy interface.
// policy.LRU embeds it and is otherwise only its interface adapter.
//
// Stamps stay below 2^58, since the clock moves by one per touch, so a
// stamp shifted left by six bits still holds a way index (0..63) in its
// low bits. VictimFor relies on that to find the oldest candidate with a
// branch-free minimum.
type LRUEngine struct {
	ways  int
	stamp []uint64
	clock uint64
}

// NewLRUEngine builds the LRU state for the given cache geometry.
func NewLRUEngine(g Geometry) LRUEngine {
	return LRUEngine{ways: g.Ways, stamp: make([]uint64, g.Sets*g.Ways)}
}

// Touch moves the line to MRU: its stamp becomes the advanced clock.
func (e *LRUEngine) Touch(set, way int) {
	e.clock++
	e.stamp[set*e.ways+way] = e.clock
}

// VictimFor returns the way to replace in set among the candidate ways,
// given the set's valid-way bitset: the lowest invalid candidate if there
// is one, else the candidate with the oldest stamp, the lowest way winning
// ties. The oldest candidate is the minimum of stamp<<6 | way, so the way
// bits break ties toward the lowest way and the scan has no data-dependent
// branch.
//
// VictimFor stays out of line: inlined into Cache.Access, it slowed the
// detailed simulation of perf's mix4-paper-sampled by 10%, every one of 10
// alternating pairs slower (EXPERIMENTS.md, "LRU engine and a four-field
// cache.Result").
//
//go:noinline
func (e *LRUEngine) VictimFor(set int, valid, ways uint64) int {
	if inv := ways &^ valid; inv != 0 {
		return bits.TrailingZeros64(inv)
	}
	base := set * e.ways
	stamps := e.stamp[base : base+e.ways]
	best := ^uint64(0)
	for m := ways; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		best = min(best, stamps[w]<<6|uint64(w))
	}
	return int(best & 63)
}
