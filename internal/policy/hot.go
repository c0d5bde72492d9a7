package policy

import "repro/internal/cache"

// Hot profiles: each RRIP-family policy declares, once, which of the
// engine's per-access callbacks it keeps, so the cache can run them without
// interface dispatch (cache.HotProfile). A flag is set if and only if the
// policy inherits the engine's callback instead of declaring its own — a
// profile that over-claims changes decisions, which is what the
// differential dispatch tests in dispatch_test.go pin for every registered
// policy (fast vs reference path, masked and unmasked).
//
// LRU deliberately implements no profile: it has no Engine, and its
// callbacks stay on the interface path.

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

// Hot implements cache.HotPather. DRRIP's selector trains in OnMiss (a
// cache.MissObserver, called either way); hit and fill decision are the
// engine's.
func (p *DRRIP) Hot() cache.HotProfile {
	return cache.HotProfile{Engine: &p.Engine, PlainHit: true, PlainVictim: true}
}

// Hot implements cache.HotPather. TA-DRRIP keeps the engine's hit; the
// bypass variant's FillDecision can decline to allocate, so PlainVictim
// holds only for the non-bypass variants.
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
