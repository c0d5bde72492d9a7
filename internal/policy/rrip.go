package policy

import "repro/internal/cache"

// SRRIP implements Static Re-Reference Interval Prediction (Jaleel et al.,
// ISCA 2010): every demand fill is inserted with RRPV MaxRRPV-1 ("long"),
// demand hits promote to 0 ("near-immediate"), victims are lines with RRPV
// MaxRRPV. SRRIP handles mixed and scan access patterns but thrashes on
// working sets larger than the cache — the failure mode ADAPT targets.
// Hits and victims are the embedded engine's; SRRIP adds only its name and
// insertion value.
type SRRIP struct {
	cache.Engine
}

// NewSRRIP builds an SRRIP policy.
func NewSRRIP(g cache.Geometry) *SRRIP {
	return &SRRIP{Engine: cache.NewEngine(g)}
}

// Name implements cache.ReplacementPolicy.
func (p *SRRIP) Name() string { return "srrip" }

// OnFill inserts demand fills at MaxRRPV-1.
func (p *SRRIP) OnFill(a *cache.Access, set, way int) {
	if a.Demand {
		p.SetRRPV(set, way, MaxRRPV-1)
		return
	}
	p.SetRRPV(set, way, NonDemandRRPV(a))
}

// BRRIP implements Bimodal RRIP: demand fills are inserted with the distant
// value MaxRRPV, except one fill in BRRIPEpsilonPeriod which is inserted
// with MaxRRPV-1. This preserves a trickle of the working set in the cache
// and is the policy of choice for thrashing applications. The bimodal
// throttle is a per-core counter, as in hardware.
type BRRIP struct {
	cache.Engine
	eps []EpsilonCounter
}

// NewBRRIP builds a BRRIP policy.
func NewBRRIP(g cache.Geometry) *BRRIP {
	eps := make([]EpsilonCounter, g.Cores)
	for i := range eps {
		eps[i] = NewEpsilonCounter(BRRIPEpsilonPeriod)
	}
	return &BRRIP{Engine: cache.NewEngine(g), eps: eps}
}

// Name implements cache.ReplacementPolicy.
func (p *BRRIP) Name() string { return "brrip" }

// OnFill inserts demand fills bimodally (1/32 at long, rest at distant).
func (p *BRRIP) OnFill(a *cache.Access, set, way int) {
	if !a.Demand {
		p.SetRRPV(set, way, NonDemandRRPV(a))
		return
	}
	v := uint8(MaxRRPV)
	if p.eps[a.Core].Fire() {
		v = MaxRRPV - 1
	}
	p.SetRRPV(set, way, v)
}
