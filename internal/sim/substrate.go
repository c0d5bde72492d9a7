package sim

import (
	"repro/internal/arbiter"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/mem"
)

// sharedSubstrate is the shared half of the machine: the paper's Table 3
// fabric that cores contend on — the VPC arbiter, the banked LLC and its
// replacement policy, the DRAM model and the LLC-side MSHR/write-back pools.
// A core's private hierarchy (corePath) reaches it only through Fetch and
// Writeback, which the serial event loop issues in its global
// (clock, core-index) order.
//
// The scratch records are reused across calls so the policy interface does
// not force a heap allocation per LLC reference (same trick as corePath's
// private scratches).
type sharedSubstrate struct {
	cfg *Config

	llc  *cache.Cache
	dram *mem.DDR2
	arb  *arbiter.VPC

	// observe, when non-nil, sees every demand access that reaches the LLC
	// (see System.ObserveLLC).
	observe func(core, set int, block uint64)

	// cluster, when non-nil, is the LFOC-style fairness clustering manager.
	// It observes every LLC demand access and flips the policy's way masks
	// at epoch boundaries, both inside Fetch, so its decisions follow the
	// global event order.
	cluster *cluster.Manager

	// mshr and wb are the LLC-side miss-status and write-back pools, one per
	// DRAM bank: the registers are banked with the DRAM channel they feed.
	mshr, wb []*cache.TimedPool

	scratchLLC, scratchWB cache.Access
}

// bankPools splits a pool capacity evenly across the DRAM banks, at least
// one entry each.
func bankPools(total, banks int) []*cache.TimedPool {
	n := total / banks
	if n < 1 {
		n = 1
	}
	pools := make([]*cache.TimedPool, banks)
	for i := range pools {
		pools[i] = cache.NewTimedPool(n)
	}
	return pools
}

// Fetch serves an L2 miss for block: through the VPC arbiter to an LLC bank
// and, on an LLC miss, through the LLC MSHRs to DRAM. at is the time the
// request leaves the core's L2 MSHRs; the return value is the time the data
// is available to the private hierarchy.
//
// The statement order — arbiter grant, LLC observer, LLC lookup, cluster
// observation, DRAM read, dirty-victim drain — is the canonical substrate
// mutation order, and the golden-fingerprint corpus pins it.
func (u *sharedSubstrate) Fetch(core int, block, pc uint64, write, demand bool, at uint64) uint64 {
	set := u.llc.SetOf(block)
	start := u.arb.Schedule(core, u.arb.BankOf(set), at)
	t4 := start + u.cfg.LLCLatency

	if demand && u.observe != nil {
		u.observe(core, set, block)
	}
	setAccess(&u.scratchLLC, block, core, pc, write, demand, false)
	rl := u.llc.Access(&u.scratchLLC)

	// Clustering observes demand traffic after the lookup so the current
	// access is classified under the masks that governed its own fill; an
	// epoch boundary inside Observe re-partitions for the *next* access.
	if u.cluster != nil && demand {
		u.cluster.Observe(core, block, !rl.Hit, start-at)
	}

	if rl.Hit {
		return t4
	}
	// DRAM read (whether the LLC allocated or bypassed), then the dirty
	// victim racing it, fire-and-forget through the write-back pool.
	bank, _ := u.dram.Map(block)
	mshr := u.mshr[bank]
	done, _ := u.dram.Access(mshr.Reserve(t4), block, false)
	mshr.Occupy(t4, done)
	if rl.EvictedValid && rl.Evicted.Dirty {
		victim := rl.Evicted.Block
		bank, _ := u.dram.Map(victim)
		wb := u.wb[bank]
		drained, _ := u.dram.Access(wb.Reserve(t4), victim, true)
		wb.Occupy(t4, drained)
	}
	return done
}

// Writeback drains a dirty L2 victim: an LLC bank slot via the arbiter; a
// resident LLC copy absorbs the write, otherwise the victim writes through
// to DRAM. There is no allocation on a miss — filling the LLC with blocks
// the L2 just evicted would churn the cache and, under high-turnover
// policies, roughly double DRAM write traffic. at is the time the victim
// leaves the core's L2 write-back buffer; the return value is the drain
// completion time.
func (u *sharedSubstrate) Writeback(core int, block uint64, at uint64) uint64 {
	set := u.llc.SetOf(block)
	start := u.arb.Schedule(core, u.arb.BankOf(set), at)
	done := start + u.cfg.LLCLatency

	setAccess(&u.scratchWB, block, core, 0, true, false, true)
	if u.llc.WritebackNoAllocate(&u.scratchWB) {
		return done
	}
	done, _ = u.dram.Access(done, block, true)
	return done
}

// fetchFunc is Fetch without time, for functional-warming gaps: the LLC
// lookup (and so replacement metadata, SHCT/duel learning, bypass
// decisions), the LLC observer and the cluster observation all happen in the
// same order as in Fetch, but there is no arbiter grant and no DRAM access —
// an LLC miss fills (or bypasses) instantly at nominal latency. Cluster
// waits are observed as zero: the functional machine has no queueing.
func (u *sharedSubstrate) fetchFunc(core int, block, pc uint64, write, demand bool) {
	set := u.llc.SetOf(block)
	if demand && u.observe != nil {
		u.observe(core, set, block)
	}
	setAccess(&u.scratchLLC, block, core, pc, write, demand, false)
	rl := u.llc.Access(&u.scratchLLC)
	if u.cluster != nil && demand {
		u.cluster.Observe(core, block, !rl.Hit, 0)
	}
	// Dirty LLC victims vanish: the functional machine tracks no DRAM row
	// or bank state for the write to perturb.
}

// writebackFunc is Writeback without time: a resident LLC copy absorbs the
// dirty L2 victim (keeping its dirty bit and recency state honest for the
// next detailed window); a miss writes through to nothing.
func (u *sharedSubstrate) writebackFunc(core int, block uint64) {
	setAccess(&u.scratchWB, block, core, 0, true, false, true)
	u.llc.WritebackNoAllocate(&u.scratchWB)
}
