// Package cache models set-associative caches with pluggable replacement
// policies, as required to reproduce the memory hierarchy of Sridharan &
// Seznec's ADAPT study (Table 3 of the paper): private L1s and L2s and a
// large shared last-level cache.
//
// The package is purely about cache *state* (tags, dirty bits, replacement
// metadata owned by policies); timing is handled by the callers in
// internal/sim with the help of the TimedPool type (MSHRs and write-back
// buffers). State transitions use the usual trace-driven fill-on-miss
// approximation: a missing block is installed at lookup time, and the caller
// propagates the miss down the hierarchy afterwards.
//
// Metadata is stored struct-of-arrays (see Cache): one dense tags array as
// the single source of truth plus per-set valid/dirty/prefetch bitsets, the
// layout of the per-access fast path. The RRIP Engine and the LRUEngine
// live here too so the fast path can call them without interface dispatch
// (HotProfile).
package cache

import (
	"fmt"
	"math/bits"
)

// Geometry describes the shape of a cache and of the system around it.
// Replacement policies are constructed against a Geometry before the cache
// itself exists.
type Geometry struct {
	Sets  int // number of sets; must be a power of two
	Ways  int // associativity; at most 64 (per-set bitsets are one word)
	Cores int // number of cores (applications) that may access the cache
}

// Blocks returns the total number of cache blocks.
func (g Geometry) Blocks() int { return g.Sets * g.Ways }

// Config describes one cache instance.
type Config struct {
	Name       string // for error messages and stats dumps
	Geometry   Geometry
	BlockBytes int    // line size; 64 in the paper
	HitLatency uint64 // lookup latency in cycles (L1: 3, L2: 14, LLC: 24)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	g := c.Geometry
	if g.Sets <= 0 || g.Sets&(g.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets must be a positive power of two, got %d", c.Name, g.Sets)
	}
	if g.Ways <= 0 || g.Ways > 64 {
		return fmt.Errorf("cache %s: ways must be in 1..64 (per-set state is a 64-bit word), got %d", c.Name, g.Ways)
	}
	if g.Cores <= 0 {
		return fmt.Errorf("cache %s: cores must be positive, got %d", c.Name, g.Cores)
	}
	if c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %s: block size must be a positive power of two, got %d", c.Name, c.BlockBytes)
	}
	return nil
}

// Access describes one reference presented to a cache. Addresses are block
// addresses (byte address with the block-offset bits already stripped); the
// hierarchy uses a single global block-address space with per-application
// regions, so no address-space identifier is needed beyond Core.
type Access struct {
	Block     uint64 // block address
	Core      int    // issuing application (one application per core)
	PC        uint64 // program counter of the memory instruction (SHiP signature source)
	Write     bool   // store (or write-back) rather than load
	Demand    bool   // demand reference; false for prefetches and write-backs
	Writeback bool   // fill produced by an upper-level dirty eviction
}

// EvictedLine describes a line leaving a cache.
type EvictedLine struct {
	Block uint64
	Core  int
	Dirty bool
}

// ReplacementPolicy is the hook interface replacement algorithms implement:
// only what a policy decides. The cache owns everything else — line
// validity, each core's fill partition and the rule that only demand
// references train replacement state (the paper's footnote 4). It invokes
// the methods in this order on a reference:
//
//	hit:  OnHit                 (demand references only)
//	miss: FillDecision, OnFill
//
// FillDecision receives the set's valid-way bitset and the filling core's
// candidate ways (every way, or the core's mask; see SetWayMask). A policy
// that allocates must return a candidate way, and an invalid candidate when
// there is one; the cache panics on a way outside the candidates. It may
// return allocate=false to bypass the fill entirely (the block is forwarded
// to the requester without being installed), which is how ADAPT_bp32 and
// the bypass variants of Figure 6 are expressed. OnFill sees every fill,
// including prefetches and write-backs, whose insertion values differ.
//
// Policies that need more of the miss path implement the optional
// MissObserver and EvictObserver. Policies whose per-access callbacks are
// the RRIP Engine's or the LRUEngine's own can additionally implement
// HotPather; the cache then skips the interface for those callbacks (same
// decisions, no dynamic dispatch).
type ReplacementPolicy interface {
	Name() string
	OnHit(a *Access, set, way int)
	FillDecision(a *Access, set int, valid, ways uint64) (way int, allocate bool)
	OnFill(a *Access, set, way int)
}

// MissObserver is the optional capability a policy implements to see demand
// misses before the fill decision (set-dueling selectors and ADAPT's
// footprint monitor train on them).
type MissObserver interface {
	OnMiss(a *Access, set int)
}

// EvictObserver is the optional capability a policy implements to see each
// valid line a fill displaces, after the fill decision and before OnFill
// (SHiP trains on dead lines, EAF records their addresses).
type EvictObserver interface {
	OnEvict(set, way int, ev EvictedLine)
}

// Line is one cache block's bookkeeping state as a value — the view LineAt
// returns for tests and debugging. The cache itself does not store Lines;
// state lives in the struct-of-arrays layout.
// Replacement metadata lives in the policies, not here.
type Line struct {
	Tag      uint64
	Valid    bool
	Dirty    bool
	Core     uint8
	Prefetch bool // filled by a prefetch and not yet referenced by a demand access
}

// Result reports what a call to Access did. A miss the policy declined to
// allocate (a bypass) reads as a miss with nothing evicted; Stats counts
// it in Bypasses.
//
// Result and EvictedLine keep at most four fields and four words, so the
// compiler keeps a returned Result in registers instead of spilling it to
// the caller's stack; TestResultFitsInRegisters gives the measured cost of
// a larger one.
type Result struct {
	Hit          bool
	EvictedValid bool        // a valid line was displaced by the fill
	Evicted      EvictedLine // the displaced line, if EvictedValid
}

// Stats aggregates per-core reference counters. "Demand" excludes prefetches
// and write-backs. All counters are monotonically increasing; Reset zeroes
// them (used at the end of the warm-up window).
type Stats struct {
	Accesses       []uint64
	Misses         []uint64
	DemandAccesses []uint64
	DemandMisses   []uint64
	Bypasses       []uint64
	Evictions      []uint64
	DirtyEvictions []uint64
	PrefetchFills  []uint64
}

func newStats(cores int) Stats {
	return Stats{
		Accesses:       make([]uint64, cores),
		Misses:         make([]uint64, cores),
		DemandAccesses: make([]uint64, cores),
		DemandMisses:   make([]uint64, cores),
		Bypasses:       make([]uint64, cores),
		Evictions:      make([]uint64, cores),
		DirtyEvictions: make([]uint64, cores),
		PrefetchFills:  make([]uint64, cores),
	}
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	for _, arr := range [][]uint64{
		s.Accesses, s.Misses, s.DemandAccesses, s.DemandMisses,
		s.Bypasses, s.Evictions, s.DirtyEvictions, s.PrefetchFills,
	} {
		for i := range arr {
			arr[i] = 0
		}
	}
}

// Cache is a set-associative, write-back, write-allocate cache.
//
// State is struct-of-arrays, the dense layout of the ChampSim-style
// simulators: tags is the one source of truth for the per-way tag-match
// scan (the innermost loop of the whole simulator), core is a parallel
// byte array, and valid/dirty/prefetch are per-set 64-bit bitsets (bit w =
// way w; Ways ≤ 64 is enforced by Config.Validate). A tags entry may be
// stale for an invalid way, so a match is confirmed against the valid bit.
type Cache struct {
	cfg      Config
	setShift uint // log2(sets)
	ways     int  // cfg.Geometry.Ways, hoisted for the hot path
	tags     []uint64
	core     []uint8
	valid    []uint64 // per set: valid-way bitset
	dirty    []uint64 // per set: dirty-way bitset
	pref     []uint64 // per set: prefetched-not-yet-demanded bitset
	full     uint64   // every way's bit
	masks    []uint64 // per core: fill candidate ways (full = unrestricted)
	policy   ReplacementPolicy
	miss     MissObserver // policy's optional capabilities, nil if absent
	evict    EvictObserver

	// hot is the active dispatch profile: zero means every policy callback
	// goes through the ReplacementPolicy interface (the reference path);
	// a profile captured from HotPather devirtualizes the flagged
	// callbacks. hotFull retains the captured profile so the differential
	// tests can toggle between the two (SetReferenceDispatch).
	hot     HotProfile
	hotFull HotProfile

	stats Stats
}

// New builds a cache. It panics on invalid configuration (construction
// happens at setup time from vetted configs; failing loudly beats limping).
// The policy's optional capabilities are captured here, once: MissObserver,
// EvictObserver and HotPather, whose profile drives devirtualized dispatch
// for the flagged callbacks.
func New(cfg Config, p ReplacementPolicy) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if p == nil {
		panic(fmt.Sprintf("cache %s: nil replacement policy", cfg.Name))
	}
	// The three per-set line-state bitsets share one allocation: two fewer
	// per cache built.
	n := cfg.Geometry.Sets
	lineBits := make([]uint64, 3*n)
	c := &Cache{
		cfg:      cfg,
		setShift: uint(bits.TrailingZeros(uint(n))),
		ways:     cfg.Geometry.Ways,
		tags:     make([]uint64, n*cfg.Geometry.Ways),
		core:     make([]uint8, n*cfg.Geometry.Ways),
		valid:    lineBits[:n:n],
		dirty:    lineBits[n : 2*n : 2*n],
		pref:     lineBits[2*n:],
		full:     uint64(1)<<uint(cfg.Geometry.Ways) - 1,
		masks:    make([]uint64, cfg.Geometry.Cores),
		policy:   p,
		stats:    newStats(cfg.Geometry.Cores),
	}
	for i := range c.masks {
		c.masks[i] = c.full
	}
	c.miss, _ = p.(MissObserver)
	c.evict, _ = p.(EvictObserver)
	if hp, ok := p.(HotPather); ok {
		prof := hp.Hot()
		if prof.Engine == nil && (prof.PlainHit || prof.PlainVictim) {
			panic(fmt.Sprintf("cache %s: policy %s declared a hot profile without an engine", cfg.Name, p.Name()))
		}
		if prof.LRU != nil && (prof.Engine != nil || prof.PlainHit || prof.PlainVictim) {
			panic(fmt.Sprintf("cache %s: policy %s declared a hot profile with both an RRIP and an LRU engine", cfg.Name, p.Name()))
		}
		c.hot = prof
		c.hotFull = prof
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the live counters. Callers must not retain the slices across
// a Reset if they need pre-reset values.
func (c *Cache) Stats() *Stats { return &c.stats }

// Policy returns the attached replacement policy.
func (c *Cache) Policy() ReplacementPolicy { return c.policy }

// SetReferenceDispatch toggles the retained reference implementation: with
// on=true every policy callback goes through the ReplacementPolicy
// interface even if the policy declared a hot profile. Decisions must be
// bit-identical either way — that equivalence is exactly what the
// differential dispatch tests assert by running the same access stream
// through both modes.
func (c *Cache) SetReferenceDispatch(on bool) {
	if on {
		c.hot = HotProfile{}
	} else {
		c.hot = c.hotFull
	}
}

// SetWayMask restricts which ways core's fills may victimise in every set
// (bit w set = way w allowed); a zero mask means unrestricted. Hits remain
// unrestricted — a line is served wherever it lives, which is the standard
// way-partitioning semantics (partitioning controls insertion bandwidth,
// not lookup). The clustering layer in internal/cluster drives this.
func (c *Cache) SetWayMask(core int, mask uint64) {
	if mask &= c.full; mask == 0 {
		mask = c.full
	}
	c.masks[core] = mask
}

// SetOf returns the set index for a block address.
func (c *Cache) SetOf(block uint64) int {
	return int(block & uint64(c.cfg.Geometry.Sets-1))
}

// TagOf returns the tag for a block address.
func (c *Cache) TagOf(block uint64) uint64 {
	return block >> c.setShift
}

// BlockOf reconstructs a block address from a set index and tag.
func (c *Cache) BlockOf(set int, tag uint64) uint64 {
	return tag<<c.setShift | uint64(set)
}

// findWay scans one set for a valid line holding tag, returning its way or
// -1. Stale tag matches on invalid ways are skipped via the valid bitset.
func (c *Cache) findWay(set int, tag uint64) int {
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	vm := c.valid[set]
	for w := range tags {
		if tags[w] == tag && vm&(1<<uint(w)) != 0 {
			return w
		}
	}
	return -1
}

// Lookup reports whether block is present, without updating any state.
func (c *Cache) Lookup(block uint64) (way int, ok bool) {
	set, tag := c.SetOf(block), c.TagOf(block)
	if w := c.findWay(set, tag); w >= 0 {
		return w, true
	}
	return -1, false
}

// Access performs a reference: on hit it updates replacement and dirty state;
// on miss it consults the policy, possibly evicting a victim and installing
// the block. The returned Result tells the caller whether to recurse into the
// next level (miss) and whether a dirty victim needs writing back.
//
// Dispatch follows the cache's hot profile: an LRU profile runs every
// callback as a direct LRUEngine call; an RRIP profile runs its flagged
// callbacks as direct Engine calls; the rest go through the
// ReplacementPolicy interface. State updates are identical, in identical
// order, either way.
func (c *Cache) Access(a *Access) Result {
	set, tag := c.SetOf(a.Block), c.TagOf(a.Block)
	if w := c.findWay(set, tag); w >= 0 {
		c.hit(a, set, w)
		return Result{Hit: true}
	}

	// Miss.
	c.stats.Accesses[a.Core]++
	c.stats.Misses[a.Core]++
	if a.Demand {
		c.stats.DemandAccesses[a.Core]++
		c.stats.DemandMisses[a.Core]++
		if c.miss != nil {
			c.miss.OnMiss(a, set)
		}
	}

	valid, ways := c.valid[set], c.masks[a.Core]
	var way int
	if lru := c.hot.LRU; lru != nil {
		// The engines' victims are candidates by construction; no recheck.
		way = lru.VictimFor(set, valid, ways)
	} else if c.hot.PlainVictim {
		way = c.hot.Engine.VictimFor(set, valid, ways)
	} else {
		var allocate bool
		way, allocate = c.policy.FillDecision(a, set, valid, ways)
		if !allocate {
			c.stats.Bypasses[a.Core]++
			return Result{}
		}
		if way < 0 || way >= c.ways || ways&(1<<uint(way)) == 0 {
			panic(fmt.Sprintf("cache %s: policy %s returned way %d, not a candidate of %#x",
				c.cfg.Name, c.policy.Name(), way, ways))
		}
	}

	res := Result{}
	i := set*c.ways + way
	bit := uint64(1) << uint(way)
	if valid&bit != 0 {
		ev := EvictedLine{Block: c.BlockOf(set, c.tags[i]), Core: int(c.core[i]), Dirty: c.dirty[set]&bit != 0}
		if c.evict != nil {
			c.evict.OnEvict(set, way, ev)
		}
		c.stats.Evictions[ev.Core]++
		if ev.Dirty {
			c.stats.DirtyEvictions[ev.Core]++
		}
		res.EvictedValid = true
		res.Evicted = ev
	}

	c.tags[i] = tag
	c.core[i] = uint8(a.Core)
	c.valid[set] |= bit
	if a.Write {
		c.dirty[set] |= bit
	} else {
		c.dirty[set] &^= bit
	}
	if !a.Demand && !a.Writeback {
		c.pref[set] |= bit
		c.stats.PrefetchFills[a.Core]++
	} else {
		c.pref[set] &^= bit
	}
	if lru := c.hot.LRU; lru != nil {
		lru.Touch(set, way)
	} else {
		c.policy.OnFill(a, set, way)
	}
	return res
}

// Hit performs a if its block is present, exactly as Access would, and
// reports whether it was. A false answer changes nothing: no counter, no
// line and no policy state, so the caller may go on to Access with the
// same record. The run-ahead probe of internal/sim calls it on the L1, so
// that a private step scans its L1 set once.
func (c *Cache) Hit(a *Access) bool {
	set := c.SetOf(a.Block)
	w := c.findWay(set, c.TagOf(a.Block))
	if w < 0 {
		return false
	}
	c.hit(a, set, w)
	return true
}

// hit performs a reference that found its block in way w of set: the
// access counters, the dirty bit and, for a demand reference, the
// prefetch-bit clear and the policy's hit update. It is the one hit path of
// Access and Hit.
func (c *Cache) hit(a *Access, set, w int) {
	c.stats.Accesses[a.Core]++
	bit := uint64(1) << uint(w)
	if a.Write {
		c.dirty[set] |= bit
	}
	if !a.Demand {
		return
	}
	c.stats.DemandAccesses[a.Core]++
	c.pref[set] &^= bit
	if lru := c.hot.LRU; lru != nil {
		lru.Touch(set, w)
	} else if c.hot.PlainHit {
		c.hot.Engine.Promote(set, w)
	} else {
		c.policy.OnHit(a, set, w)
	}
}

// WritebackNoAllocate presents an upper level's dirty victim to this cache
// without allocating on a miss: a hit absorbs the write (the line turns
// dirty), a miss leaves the cache untouched and the caller forwards the
// write to the next level. This is the non-inclusive LLC's victim-write
// path — allocating such lines would only churn the cache with blocks the
// upper level just proved it no longer wants. A write-back is never a
// demand reference, so the policy is not consulted.
func (c *Cache) WritebackNoAllocate(a *Access) (hit bool) {
	set, tag := c.SetOf(a.Block), c.TagOf(a.Block)
	c.stats.Accesses[a.Core]++
	if w := c.findWay(set, tag); w >= 0 {
		c.dirty[set] |= uint64(1) << uint(w)
		return true
	}
	c.stats.Misses[a.Core]++
	return false
}

// OccupancyByCore counts valid lines owned by each core. Used by fairness
// analyses and tests.
func (c *Cache) OccupancyByCore() []int {
	occ := make([]int, c.cfg.Geometry.Cores)
	for set := range c.valid {
		base := set * c.ways
		for m := c.valid[set]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			occ[int(c.core[base+w])]++
		}
	}
	return occ
}

// ValidLines counts valid lines in the whole cache.
func (c *Cache) ValidLines() int {
	n := 0
	for _, m := range c.valid {
		n += bits.OnesCount64(m)
	}
	return n
}

// LineAt exposes a copy of the line at (set, way) for tests and debugging.
func (c *Cache) LineAt(set, way int) Line {
	i := set*c.ways + way
	bit := uint64(1) << uint(way)
	return Line{
		Tag:      c.tags[i],
		Valid:    c.valid[set]&bit != 0,
		Dirty:    c.dirty[set]&bit != 0,
		Core:     c.core[i],
		Prefetch: c.pref[set]&bit != 0,
	}
}
