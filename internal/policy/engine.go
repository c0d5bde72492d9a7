package policy

import "repro/internal/cache"

// NonDemandRRPV is the shared insertion rule for prefetch and write-back
// fills (see prefetchRRPV and writebackRRPV for the reasoning).
func NonDemandRRPV(a *cache.Access) uint8 {
	if a.Writeback {
		return writebackRRPV
	}
	return prefetchRRPV
}

// EpsilonCounter implements the hardware-style 1-in-N event selector used
// for BRRIP's bimodal throttle and ADAPT's probabilistic insertions: a small
// counter that wraps every N events, firing once per period. This is how the
// proposals implement "1/16th" and "1/32nd" insertions — with counters, not
// random numbers — and modelling it the same way keeps runs deterministic.
type EpsilonCounter struct {
	period uint32
	count  uint32
}

// NewEpsilonCounter returns a counter firing once every period events.
func NewEpsilonCounter(period uint32) EpsilonCounter {
	if period == 0 {
		panic("policy: EpsilonCounter period must be positive")
	}
	return EpsilonCounter{period: period}
}

// Fire advances the counter and reports true once every period calls
// (on the first call of each period, so behaviour is defined from the start).
func (c *EpsilonCounter) Fire() bool {
	hit := c.count == 0
	c.count++
	if c.count == c.period {
		c.count = 0
	}
	return hit
}
