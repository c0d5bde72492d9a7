package policy

import (
	"math/bits"

	"repro/internal/cache"
)

// LRU is true least-recently-used replacement: every fill and every demand
// hit moves the line to MRU; the victim is the least recently touched line.
// The paper's Figure 3 uses it as the classic baseline that thrashes when
// working sets exceed the cache ("the MRU insertions of thrashing
// applications pollute the cache").
type LRU struct {
	geom  cache.Geometry
	stamp []uint64
	clock uint64
}

// NewLRU builds an LRU policy for the given geometry.
func NewLRU(g cache.Geometry) *LRU {
	return &LRU{geom: g, stamp: make([]uint64, g.Sets*g.Ways)}
}

// Name implements cache.ReplacementPolicy.
func (p *LRU) Name() string { return "lru" }

// OnHit promotes the line to MRU (the cache calls it for demand hits only,
// matching the paper's footnote 4).
func (p *LRU) OnHit(a *cache.Access, set, way int) {
	p.clock++
	p.stamp[set*p.geom.Ways+way] = p.clock
}

// FillDecision always allocates; LRU has no bypass opportunity because every
// insertion is at MRU (paper §5.3). The victim is the lowest invalid
// candidate way, else the candidate with the oldest stamp, the lowest way
// winning ties.
func (p *LRU) FillDecision(a *cache.Access, set int, valid, ways uint64) (int, bool) {
	if inv := ways &^ valid; inv != 0 {
		return bits.TrailingZeros64(inv), true
	}
	base := set * p.geom.Ways
	victim, oldest := -1, uint64(0)
	for m := ways; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if s := p.stamp[base+w]; victim < 0 || s < oldest {
			victim, oldest = w, s
		}
	}
	return victim, true
}

// OnFill installs the new line at MRU.
func (p *LRU) OnFill(a *cache.Access, set, way int) {
	p.clock++
	p.stamp[set*p.geom.Ways+way] = p.clock
}
