// Package core implements ADAPT — Adaptive Discrete and de-prioritized
// Application PrioriTization — the contribution of Sridharan & Seznec,
// "Discrete Cache Insertion Policies for Shared Last Level Cache Management
// on Large Multicores" (INRIA RR-8816 / IPPS 2016).
//
// ADAPT manages a shared last-level cache whose associativity is smaller
// than the number of sharing cores. It has two cooperating components:
//
//  1. A monitoring mechanism (Sampler) that estimates each application's
//     Footprint-number — the number of unique block addresses the
//     application brings to a cache set per interval of one million LLC
//     misses — by sampling 40 cache sets with small partial-tag arrays.
//  2. An insertion-priority prediction algorithm that classifies
//     applications into four discrete buckets (High, Medium, Low, Least;
//     Table 1 of the paper) from their Footprint-numbers and inserts their
//     cache lines with bucket-specific RRPVs. Least-priority (thrashing)
//     applications are mostly bypassed: only 1 fill in 32 is installed
//     (the ADAPT_bp32 variant); ADAPT_ins installs all of them at the
//     distant RRPV.
//
// Unlike set-dueling policies, ADAPT dedicates no cache sets to policy
// learning and never perturbs main-cache state from its monitors.
package core

import (
	"fmt"

	"repro/internal/policy"
)

// Paper defaults (§3.1, §3.3).
const (
	// DefaultMonitoredSets is the number of sampled cache sets per
	// application sampler ("we observe that sampling 40 sets are
	// sufficient").
	DefaultMonitoredSets = 40
	// ArrayEntries is the per-monitored-set partial-tag array size ("In our
	// study, we use only 16-entry array").
	ArrayEntries = 16
	// PartialTagBits is the number of tag bits stored per entry ("Only the
	// most significant 10 bits are stored per cache block").
	PartialTagBits = 10
	// LstPInsertPeriod: 1 fill in 32 of a Least-priority application is
	// installed; the rest are bypassed (ADAPT_bp32).
	LstPInsertPeriod = 32
	// MPLPInsertPeriod: Medium-priority fills go to the Low value (and Low
	// fills to the Medium value) once every 16 fills.
	MPLPInsertPeriod = 16
	// IntervalMissesPerBlock scales the monitoring interval with cache
	// size: the paper's 1M-miss interval is "roughly four times the total
	// number of blocks in the cache" (1M ≈ 4 × 262144 blocks of a 16MB LLC).
	IntervalMissesPerBlock = 4
	// SufficientObservationsPerSet closes a per-application interval early
	// once the sampler has seen this many demand accesses per monitored
	// set on average: at that point the footprint estimate is saturated
	// for every bucket boundary (the largest boundary is 16, and 24
	// observations per set measure it with margin). This lets
	// low-miss-rate but high-hit-rate applications be classified without
	// waiting for a miss quota they may never reach.
	SufficientObservationsPerSet = 24
)

// Bucket is a discrete insertion priority level (Table 1).
type Bucket uint8

// Priority buckets in decreasing priority order.
const (
	BucketHigh Bucket = iota
	BucketMedium
	BucketLow
	BucketLeast
)

// String implements fmt.Stringer.
func (b Bucket) String() string {
	switch b {
	case BucketHigh:
		return "HP"
	case BucketMedium:
		return "MP"
	case BucketLow:
		return "LP"
	case BucketLeast:
		return "LstP"
	default:
		return fmt.Sprintf("Bucket(%d)", uint8(b))
	}
}

// BucketFor classifies a Footprint-number into a priority bucket using the
// given ranges (the paper's Table 1 with the zero value of r):
//
//	HP   : fpn in [0, HPMax]
//	MP   : fpn in (HPMax, MPMax]
//	LP   : fpn in (MPMax, LPMin)
//	LstP : fpn >= LPMin
func BucketFor(fpn float64, r policy.Ranges) Bucket {
	if r.IsZero() {
		r = policy.DefaultRanges()
	}
	switch {
	case fpn <= r.HPMax:
		return BucketHigh
	case fpn <= r.MPMax:
		return BucketMedium
	case fpn < r.LPMin:
		return BucketLow
	default:
		return BucketLeast
	}
}

// InsertionRRPV returns the base insertion value of a bucket (Table 1),
// before the probabilistic 1/16 and 1/32 adjustments.
func (b Bucket) InsertionRRPV() uint8 {
	switch b {
	case BucketHigh:
		return 0
	case BucketMedium:
		return 1
	case BucketLow:
		return 2
	default:
		return 3
	}
}
