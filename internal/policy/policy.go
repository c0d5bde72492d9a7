// Package policy implements the last-level-cache replacement policies that
// the ADAPT paper (Sridharan & Seznec, RR-8816) evaluates against:
//
//   - LRU — true least-recently-used (the Figure 3 baseline curve).
//   - SRRIP / BRRIP — static and bimodal re-reference interval prediction
//     (Jaleel et al., ISCA 2010), the building blocks of everything else.
//   - DRRIP — SRRIP/BRRIP set dueling with a single 10-bit PSEL (used at the
//     private L2 per Table 3), built as TA-DRRIP's one-thread case.
//   - TA-DRRIP — thread-aware set dueling, the paper's LLC baseline, with the
//     SD=64/SD=128 variants and the "forced BRRIP for thrashing applications"
//     oracle of Figure 1.
//   - SHiP — signature-based hit prediction (Wu et al., MICRO 2011), PC
//     signatures with per-core SHCTs trained on sampled sets.
//   - EAF — the evicted-address filter (Seshadri et al., PACT 2012) as
//     described in the ADAPT paper: present-in-filter inserts at RRPV 2,
//     absent at RRPV 3, Bloom filter cleared when full.
//
// Each policy also has a "bypass" variant (Figure 6): fills that the policy
// would insert with the distant value (RRPV 3) are not allocated at all.
// A variant is chosen by its registry name ("tadrrip-sd128", "tadrrip-bp",
// "ship-bp", "eaf-bp"), not by an Options field.
//
// The ADAPT policy itself lives in internal/core (it is the paper's
// contribution, not a baseline) and registers itself in this package's
// registry so that command-line tools can name every policy uniformly.
package policy

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cache"
)

// Probabilistic-throttle periods, as in the papers. The hardware implements
// these with small saturating counters, not RNGs, and so do we.
const (
	// BRRIPEpsilonPeriod is BRRIP's "infrequently insert with long
	// re-reference": 1 fill in 32 uses RRPV max-1 instead of max.
	BRRIPEpsilonPeriod = 32
	// PSELBits is the width of set-dueling selectors (10 bits, threshold 512).
	PSELBits = 10
	// DefaultSD is the number of dueling leader sets per policy per thread.
	DefaultSD = 64
)

// MaxRRPV is the saturating re-reference prediction value (2-bit RRPV),
// re-exported from internal/cache where the Engine now lives.
const MaxRRPV = cache.MaxRRPV

// Non-demand insertion values shared by every RRIP-family policy in this
// repository: next-line prefetches land one step from distant (they are
// usually consumed quickly if useful), write-backs land distant so that L2
// victim traffic does not pollute the LLC.
const (
	prefetchRRPV  = MaxRRPV - 1
	writebackRRPV = MaxRRPV
)

// Options carries construction parameters shared by the policy factories.
// The zero value selects the paper's defaults.
type Options struct {
	// Seed drives leader-set and training-set sampling. The same seed
	// always yields the same monitor sets.
	Seed uint64
	// ForcedBRRIP marks cores whose fills are forced to the BRRIP insertion
	// policy regardless of dueling (the Figure 1 "TA-DRRIP(forced)" oracle).
	ForcedBRRIP []bool

	// ADAPT-specific knobs, interpreted by internal/core. Zero values mean
	// the paper's defaults (40 monitored sets, interval of 4x the LLC block
	// count, Table 1 priority ranges).
	AdaptIntervalMisses uint64
	AdaptMonitoredSets  int
	AdaptRanges         Ranges
}

// Ranges holds the Footprint-number boundaries of ADAPT's priority buckets
// (Table 1): HP = [0, HPMax], MP = (HPMax, MPMax], LP = (MPMax, LPMin),
// LstP = [LPMin, inf). The zero value selects {3, 12, 16}.
type Ranges struct {
	HPMax float64
	MPMax float64
	LPMin float64
}

// DefaultRanges are the paper's Table 1 boundaries.
func DefaultRanges() Ranges { return Ranges{HPMax: 3, MPMax: 12, LPMin: 16} }

// IsZero reports whether r is the zero value.
func (r Ranges) IsZero() bool { return r == Ranges{} }

// Factory builds a replacement policy for a cache of the given geometry.
type Factory func(g cache.Geometry, opt Options) cache.ReplacementPolicy

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a named policy factory. It panics on duplicates: policy
// names are a flat global namespace used by CLIs and experiment configs.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New instantiates a registered policy by name.
func New(name string, g cache.Geometry, opt Options) (cache.ReplacementPolicy, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (known: %v)", name, Names())
	}
	return f(g, opt), nil
}

// Names returns the sorted list of registered policy names.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("lru", func(g cache.Geometry, opt Options) cache.ReplacementPolicy {
		return NewLRU(g)
	})
	Register("srrip", func(g cache.Geometry, opt Options) cache.ReplacementPolicy {
		return NewSRRIP(g)
	})
	Register("brrip", func(g cache.Geometry, opt Options) cache.ReplacementPolicy {
		return NewBRRIP(g)
	})
	Register("drrip", func(g cache.Geometry, opt Options) cache.ReplacementPolicy {
		return NewDRRIP(g, opt)
	})
	Register("tadrrip", func(g cache.Geometry, opt Options) cache.ReplacementPolicy {
		return NewTADRRIP(g, opt, 0, false)
	})
	Register("tadrrip-sd128", func(g cache.Geometry, opt Options) cache.ReplacementPolicy {
		return NewTADRRIP(g, opt, 128, false)
	})
	Register("tadrrip-bp", func(g cache.Geometry, opt Options) cache.ReplacementPolicy {
		return NewTADRRIP(g, opt, 0, true)
	})
	Register("ship", func(g cache.Geometry, opt Options) cache.ReplacementPolicy {
		return NewSHiP(g, opt)
	})
	Register("ship-bp", func(g cache.Geometry, opt Options) cache.ReplacementPolicy {
		p := NewSHiP(g, opt)
		p.bypass = true
		return p
	})
	Register("eaf", func(g cache.Geometry, opt Options) cache.ReplacementPolicy {
		return NewEAF(g, opt)
	})
	Register("eaf-bp", func(g cache.Geometry, opt Options) cache.ReplacementPolicy {
		p := NewEAF(g, opt)
		p.bypass = true
		return p
	})
}
