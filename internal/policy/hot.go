package policy

import "repro/internal/cache"

// Hot profiles: each policy declares, once, which of its engine's
// per-access callbacks it keeps, so the cache can run them without
// interface dispatch (cache.HotProfile). For the RRIP family a flag is set
// if and only if the policy inherits the engine's callback instead of
// declaring its own; LRU hands over its LRUEngine, which serves all three
// callbacks. A profile that over-claims changes decisions, which is what
// the differential dispatch tests in dispatch_test.go pin for every
// registered policy (fast vs reference path, masked and unmasked).

// Hot implements cache.HotPather. LRU's hit, victim and fill are all the
// embedded engine's: a touch, VictimFor and a touch.
func (p *LRU) Hot() cache.HotProfile {
	return cache.HotProfile{LRU: &p.LRUEngine}
}

// Hot implements cache.HotPather. SRRIP keeps the engine's hit and fill
// decision; only OnFill (the insertion value) is its own.
func (p *SRRIP) Hot() cache.HotProfile {
	return cache.HotProfile{Engine: &p.Engine, PlainHit: true, PlainVictim: true}
}

// Hot implements cache.HotPather. BRRIP differs from SRRIP only in the
// insertion value (OnFill), so its profile is identical.
func (p *BRRIP) Hot() cache.HotProfile {
	return cache.HotProfile{Engine: &p.Engine, PlainHit: true, PlainVictim: true}
}

// Hot implements cache.HotPather. TA-DRRIP and DRRIP keep the engine's
// hit, and their selectors train in OnMiss (a cache.MissObserver, called
// either way); the bypass variant's FillDecision can decline to allocate,
// so PlainVictim holds only for the other variants.
func (p *TADRRIP) Hot() cache.HotProfile {
	return cache.HotProfile{Engine: &p.Engine, PlainHit: true, PlainVictim: !p.bypass}
}

// Hot implements cache.HotPather. SHiP trains its SHCT in OnHit (sampled
// sets), so hits stay on the interface path; the non-bypass FillDecision is
// the engine's victim.
func (p *SHiP) Hot() cache.HotProfile {
	return cache.HotProfile{Engine: &p.Engine, PlainVictim: !p.bypass}
}

// Hot implements cache.HotPather. EAF keeps the engine's hit; the
// non-bypass FillDecision is the engine's victim.
func (p *EAF) Hot() cache.HotProfile {
	return cache.HotProfile{Engine: &p.Engine, PlainHit: true, PlainVictim: !p.bypass}
}
