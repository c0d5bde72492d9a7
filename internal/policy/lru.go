package policy

import "repro/internal/cache"

// LRU is true least-recently-used replacement: every fill and every demand
// hit moves the line to MRU; the victim is the least recently touched line.
// The paper's Figure 3 uses it as the classic baseline that thrashes when
// working sets exceed the cache ("the MRU insertions of thrashing
// applications pollute the cache"), and every core's L1 runs it.
//
// The recency state is the embedded cache.LRUEngine, so the cache runs all
// three callbacks as direct engine calls (Hot). The methods below are the
// interface path, the reference that SetReferenceDispatch and the dispatch
// tests compare the direct calls against.
type LRU struct {
	cache.LRUEngine
}

// NewLRU builds an LRU policy for the given geometry.
func NewLRU(g cache.Geometry) *LRU {
	return &LRU{LRUEngine: cache.NewLRUEngine(g)}
}

// Name implements cache.ReplacementPolicy.
func (p *LRU) Name() string { return "lru" }

// OnHit promotes the line to MRU (the cache calls it for demand hits only,
// matching the paper's footnote 4).
func (p *LRU) OnHit(a *cache.Access, set, way int) { p.Touch(set, way) }

// FillDecision always allocates; LRU has no bypass opportunity because every
// insertion is at MRU (paper §5.3). The victim is the lowest invalid
// candidate way, else the candidate with the oldest stamp, the lowest way
// winning ties.
func (p *LRU) FillDecision(a *cache.Access, set int, valid, ways uint64) (int, bool) {
	return p.VictimFor(set, valid, ways), true
}

// OnFill installs the new line at MRU.
func (p *LRU) OnFill(a *cache.Access, set, way int) { p.Touch(set, way) }
