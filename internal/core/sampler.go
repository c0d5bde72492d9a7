package core

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/rng"
)

// SamplerConfig sizes a footprint monitor.
type SamplerConfig struct {
	// Sets is the number of sets of the monitored (main) cache.
	Sets int
	// Cores is the number of applications to monitor.
	Cores int
	// MonitoredSets is how many main-cache sets are sampled
	// (DefaultMonitoredSets if zero), each through an ArrayEntries-entry
	// array.
	MonitoredSets int
	// Seed selects which sets are monitored.
	Seed uint64
}

func (c SamplerConfig) withDefaults() SamplerConfig {
	if c.MonitoredSets == 0 {
		c.MonitoredSets = DefaultMonitoredSets
	}
	if c.MonitoredSets > c.Sets {
		c.MonitoredSets = c.Sets
	}
	return c
}

// Sampler estimates per-application Footprint-numbers by observing the
// demand accesses directed to a small sample of cache sets (Figure 2 of the
// paper).
//
// Each (application, monitored set) pair owns an array that behaves like a
// tag array: entries hold 10-bit partial tags and 2-bit SRRIP state. A
// lookup miss means the block address is unique in this interval: it is
// installed (evicting an SRRIP victim if the array is full) and the set's
// unique-access counter increments. A hit only refreshes the entry's
// recency. At the end of each interval the per-set counters are averaged
// into the application's Footprint-number and everything is cleared.
//
// The SRRIP state is a cache.Engine with one set per (application,
// monitored set) row and ArrayEntries ways, so the arrays age and pick
// victims exactly as the RRIP policies do.
//
// The monitor is entirely off the critical path: it never touches the main
// cache's state.
type Sampler struct {
	cfg      SamplerConfig
	setShift uint    // log2(main-cache sets), for partial-tag extraction
	rowOf    []int16 // main-cache set -> monitored row, or -1
	sets     []int   // the monitored set indices (ascending)

	// Per (core, row, entry) partial tags, flattened.
	tags []uint16
	// The entries' SRRIP state, one engine set per (core, row).
	rrip cache.Engine
	// Per (core, row): the valid entries (bit i = entry i) and the
	// unique-access counter.
	valid []uint64
	count []uint16

	observed []uint64 // per core: observed demand accesses this interval
}

// NewSampler builds a footprint monitor.
func NewSampler(cfg SamplerConfig) *Sampler {
	cfg = cfg.withDefaults()
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("core: sampler needs a power-of-two set count")
	}
	if cfg.Cores <= 0 {
		panic("core: sampler needs at least one core")
	}
	src := rng.New(cfg.Seed ^ 0xF00DFACE15BEEF)
	monitored := src.Sample(cfg.Sets, cfg.MonitoredSets)
	rowOf := make([]int16, cfg.Sets)
	for i := range rowOf {
		rowOf[i] = -1
	}
	for row, s := range monitored {
		rowOf[s] = int16(row)
	}
	rows := cfg.Cores * cfg.MonitoredSets
	return &Sampler{
		cfg:      cfg,
		setShift: uint(bits.TrailingZeros(uint(cfg.Sets))),
		rowOf:    rowOf,
		sets:     monitored,
		tags:     make([]uint16, rows*ArrayEntries),
		rrip:     cache.NewEngine(cache.Geometry{Sets: rows, Ways: ArrayEntries}),
		valid:    make([]uint64, rows),
		count:    make([]uint16, rows),
		observed: make([]uint64, cfg.Cores),
	}
}

// Config returns the sampler's effective configuration.
func (s *Sampler) Config() SamplerConfig { return s.cfg }

// MonitoredSets returns the sampled main-cache set indices.
func (s *Sampler) MonitoredSets() []int { return s.sets }

// Monitored reports whether a main-cache set is sampled.
func (s *Sampler) Monitored(set int) bool { return s.rowOf[set] >= 0 }

// partialTag extracts the stored tag bits: the 10 low bits of the block's
// full tag (the paper stores "the most significant 10 bits" of the address
// tag; with per-application arrays the collision probability is 1/2^10
// either way — see §3.3).
func (s *Sampler) partialTag(block uint64) uint16 {
	return uint16((block >> s.setShift) & (1<<PartialTagBits - 1))
}

// Observe presents a demand access (block address) to the sampler. Accesses
// to unmonitored sets are ignored. Returns true if the access was a unique
// (new-this-interval) address in its monitored set — exposed for tests.
func (s *Sampler) Observe(core int, set int, block uint64) bool {
	row := s.rowOf[set]
	if row < 0 {
		return false
	}
	s.observed[core]++
	r := core*s.cfg.MonitoredSets + int(row)
	tags := s.tags[r*ArrayEntries : (r+1)*ArrayEntries]
	tag := s.partialTag(block)

	// Search.
	valid := s.valid[r]
	for i, t := range tags {
		if valid>>uint(i)&1 != 0 && t == tag {
			s.rrip.Promote(r, i) // hit: recency bits set to 0
			return false
		}
	}

	// Unique access: install with SRRIP and count it.
	victim := s.rrip.Victim(r, valid)
	tags[victim] = tag
	s.rrip.SetRRPV(r, victim, cache.MaxRRPV-1) // SRRIP insertion
	s.valid[r] = valid | 1<<uint(victim)
	if s.count[r] < 1<<15 {
		s.count[r]++
	}
	return true
}

// FootprintCap is the maximum reported Footprint-number. The paper reports
// saturated values as 32 (Table 4 uses a 32-entry array "only to report the
// upper-bound"); everything at or above 16 classifies as Least priority
// anyway, so the cap only affects reporting.
const FootprintCap = 32

// Footprint returns the application's current Footprint-number: the average
// per-monitored-set unique-access count, each set's contribution capped at
// FootprintCap.
func (s *Sampler) Footprint(core int) float64 {
	total := 0.0
	base := core * s.cfg.MonitoredSets
	for r := 0; r < s.cfg.MonitoredSets; r++ {
		v := float64(s.count[base+r])
		if v > FootprintCap {
			v = FootprintCap
		}
		total += v
	}
	return total / float64(s.cfg.MonitoredSets)
}

// Observed returns how many demand accesses to monitored sets the core
// produced this interval.
func (s *Sampler) Observed(core int) uint64 { return s.observed[core] }

// ResetInterval clears all arrays and counters for the next interval.
func (s *Sampler) ResetInterval() {
	clear(s.valid)
	clear(s.count)
	clear(s.observed)
}

// ResetCore clears one application's arrays and counters (per-application
// interval mode).
func (s *Sampler) ResetCore(core int) {
	base := core * s.cfg.MonitoredSets
	for i := base; i < base+s.cfg.MonitoredSets; i++ {
		s.valid[i] = 0
		s.count[i] = 0
	}
	s.observed[core] = 0
}

// StorageBitsPerApp returns the hardware cost of one application's sampler
// in bits, following the paper's §3.3 accounting: per monitored set,
// ArrayEntries × (PartialTagBits + 2 bookkeeping bits) + 8 bits of head/tail
// pointers + a unique counter; plus per-application Footprint-number and
// priority bytes and three probabilistic-insertion counters.
func StorageBitsPerApp(monitoredSets int) int {
	perSet := ArrayEntries*(PartialTagBits+2) + 8 // 16*12+8 = 200 bits
	perSet += 4                                   // unique counter (counts to 16: 4 bits, paper rounds into 204)
	// The paper states 204 bits per set, as the formula above yields.
	total := perSet * monitoredSets
	total += 2 * 8 // Footprint-number + priority (1 byte each)
	total += 3 * 8 // three probabilistic insertion counters
	return total
}
