package sim

import (
	"fmt"

	"repro/internal/arbiter"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cluster"
	_ "repro/internal/core" // registers the "adapt" and "adapt-ins" policies
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/trace"
)

// System is one simulated machine running one multi-programmed workload.
// It is split along the paper's sharing boundary: each core owns a corePath
// (its private L1/L2 hierarchy), and all cores meet in one sharedSubstrate
// (the arbiter, the banked LLC, DRAM and the shared pools). A System runs
// on one goroutine; experiment harnesses parallelise across Systems.
type System struct {
	cfg   Config
	gens  []trace.Generator
	cores []*cpu.Core
	paths []*corePath
	sub   *sharedSubstrate

	// maxBatch caps steps per event-loop batch; 0 = adaptive (slack-
	// bounded). See SetMaxBatch.
	maxBatch int

	// frontier and doneScratch are the serial event loop's reusable state
	// (see runUntilRetired): hoisted here so that steady-state loop entries
	// perform no allocation, the invariant the CI allocs gate enforces.
	frontier    frontier
	doneScratch []bool
}

// corePath is one core's private memory hierarchy: its L1 and L2 caches,
// their MSHR and write-back pools, and the reusable scratch access records
// that keep the policy interface calls allocation-free. Everything
// cross-core goes through sub.
type corePath struct {
	cfg *Config
	id  int

	l1, l2 *cache.Cache
	mshr   *cache.TimedPool // L2 MSHRs
	wb     *cache.TimedPool // L2 write-back buffer

	sub *sharedSubstrate

	scratchL1, scratchL2, scratchWB cache.Access
}

// New builds a system from a config and one generator per core.
func New(cfg Config, gens []trace.Generator) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(gens) != cfg.Cores {
		panic(fmt.Sprintf("sim: %d generators for %d cores", len(gens), cfg.Cores))
	}

	llcGeom := cache.Geometry{Sets: cfg.LLCSets, Ways: cfg.LLCWays, Cores: cfg.Cores}
	llcPol, err := policy.New(cfg.LLCPolicy, llcGeom, cfg.PolicyOpt)
	if err != nil {
		panic(err)
	}

	llc := cache.New(cache.Config{
		Name:       "llc",
		Geometry:   llcGeom,
		BlockBytes: cfg.BlockBytes,
		HitLatency: cfg.LLCLatency,
	}, llcPol)
	var clusterMgr *cluster.Manager
	if cfg.Cluster.Enabled() {
		clusterMgr = cluster.New(cfg.Cluster, llcGeom, llc.SetWayMask)
	}

	s := &System{cfg: cfg, gens: gens}
	s.sub = &sharedSubstrate{
		cfg:     &s.cfg,
		llc:     llc,
		dram:    mem.New(cfg.Mem),
		arb:     arbiter.New(cfg.Arb),
		cluster: clusterMgr,
		mshr:    bankPools(cfg.LLCMSHRs, cfg.Mem.Banks),
		wb:      bankPools(cfg.LLCWBEntries, cfg.Mem.Banks),
	}

	for i := 0; i < cfg.Cores; i++ {
		l1Geom := cache.Geometry{Sets: cfg.L1Sets, Ways: cfg.L1Ways, Cores: 1}
		l2Geom := cache.Geometry{Sets: cfg.L2Sets, Ways: cfg.L2Ways, Cores: 1}
		l2Pol, err := policy.New(cfg.L2Policy, l2Geom, policy.Options{Seed: cfg.Seed + uint64(i)*977})
		if err != nil {
			panic(err)
		}
		p := &corePath{
			cfg: &s.cfg,
			id:  i,
			l1: cache.New(cache.Config{
				Name:       fmt.Sprintf("l1-%d", i),
				Geometry:   l1Geom,
				BlockBytes: cfg.BlockBytes,
				HitLatency: cfg.L1Latency,
			}, policy.NewLRU(l1Geom)),
			l2: cache.New(cache.Config{
				Name:       fmt.Sprintf("l2-%d", i),
				Geometry:   l2Geom,
				BlockBytes: cfg.BlockBytes,
				HitLatency: cfg.L2Latency,
			}, l2Pol),
			mshr: cache.NewTimedPool(cfg.L2MSHRs),
			wb:   cache.NewTimedPool(cfg.L2WBEntries),
			sub:  s.sub,
		}
		s.paths = append(s.paths, p)

		s.cores = append(s.cores, cpu.New(cpu.Config{
			ID:             i,
			Width:          cfg.CPUWidth,
			ROB:            cfg.CPUROB,
			MaxOutstanding: cfg.CPUMaxOutstanding,
		}, gens[i], p))
	}
	return s
}

// NewFromSpecs builds a system running the named benchmark models, one per
// core.
func NewFromSpecs(cfg Config, specs []bench.Spec) *System {
	return New(cfg, specGenerators(cfg, specs))
}

// specGenerators builds one generator per benchmark model, with disjoint
// address regions and per-core decorrelated seeds.
func specGenerators(cfg Config, specs []bench.Spec) []trace.Generator {
	geom := bench.Geometry{
		LLCSets:    cfg.LLCSets,
		L2Blocks:   cfg.L2Sets * cfg.L2Ways,
		BlockBytes: cfg.BlockBytes,
	}
	gens := make([]trace.Generator, len(specs))
	for i, sp := range specs {
		gens[i] = sp.Generator(geom, uint64(i+1)<<40, cfg.Seed+uint64(i)*7919)
	}
	return gens
}

// NewFromNames is NewFromSpecs with benchmark names.
func NewFromNames(cfg Config, names []string) *System {
	specs := make([]bench.Spec, len(names))
	for i, n := range names {
		specs[i] = bench.MustByName(n)
	}
	return NewFromSpecs(cfg, specs)
}

// LLC exposes the shared cache (experiments inspect policy state).
func (s *System) LLC() *cache.Cache { return s.sub.llc }

// L2 exposes core i's private L2.
func (s *System) L2(i int) *cache.Cache { return s.paths[i].l2 }

// DRAM exposes the memory model.
func (s *System) DRAM() *mem.DDR2 { return s.sub.dram }

// Cluster exposes the fairness clustering manager, or nil when clustering
// is disabled (experiments and tests inspect classifications and masks).
func (s *System) Cluster() *cluster.Manager { return s.sub.cluster }

// ObserveLLC registers fn to see every demand access that reaches the
// shared LLC, in detailed and in functional-warming execution, just before
// the LLC lookup (after the arbiter grant, when there is one). Table 4's
// footprint samplers attach here. fn must not mutate simulator state.
func (s *System) ObserveLLC(fn func(core, set int, block uint64)) { s.sub.observe = fn }

// Access implements cpu.MemSystem: one memory reference through the
// hierarchy. It returns the completion time of the reference.
func (p *corePath) Access(_ int, now uint64, addr uint64, write bool, pc uint64) uint64 {
	return p.access(now, addr, write, pc, true)
}

// Private implements cpu.Prober: a reference is private when its block hits
// this core's L1. Such an access only marks the line dirty or recent; it
// fires no prefetch, evicts nothing and never reaches the L2 or p.sub, so
// the event loop may run it ahead of the other cores. Lookup changes no
// state.
func (p *corePath) Private(addr uint64) bool {
	_, hit := p.l1.Lookup(addr)
	return hit
}

// access walks the private hierarchy and, on an L2 miss, crosses into the
// substrate. Everything it touches before p.sub is per-core state.
func (p *corePath) access(now uint64, block uint64, write bool, pc uint64, demand bool) uint64 {
	// L1 lookup.
	p.scratchL1 = cache.Access{Block: block, Core: 0, PC: pc, Write: write, Demand: demand}
	r1 := p.l1.Access(&p.scratchL1)
	if r1.EvictedValid && r1.Evicted.Dirty {
		p.writebackToL2(r1.Evicted.Block, now)
	}
	if r1.Hit {
		if write {
			return now + 1 // store buffer absorbs the hit
		}
		return now + p.cfg.L1Latency
	}

	// Next-line prefetch on demand L1 misses (Table 3's L1 prefetcher).
	// Fire-and-forget: it perturbs cache state and bank occupancy but the
	// demand access does not wait for it.
	if demand && p.cfg.NextLinePrefetch {
		p.access(now, block+1, false, pc, false)
	}

	// L2 lookup.
	t2 := now + p.cfg.L1Latency
	p.scratchL2 = cache.Access{Block: block, Core: 0, PC: pc, Write: write, Demand: demand}
	r2 := p.l2.Access(&p.scratchL2)
	if r2.EvictedValid && r2.Evicted.Dirty {
		p.writebackToLLC(r2.Evicted.Block, t2)
	}
	if r2.Hit {
		return t2 + p.cfg.L2Latency
	}

	// L2 miss: through the private MSHRs, then across the sharing boundary.
	missAt := t2 + p.cfg.L2Latency
	t3 := p.mshr.Reserve(missAt)
	data := p.sub.Fetch(p.id, block, pc, write, demand, t3)
	p.mshr.Occupy(missAt, data)
	return data
}

// FunctionalAccess implements cpu.FunctionalMem: one memory reference
// through the hierarchy in functional-warming mode. It mirrors access's
// walk — and, crucially, its exact cache-mutation order: L1 lookup, dirty
// victim, next-line prefetch, L2 lookup, dirty victim, LLC — with every
// timing construct (latencies, MSHR/write-back reservations, the arbiter,
// DRAM) elided. Cache contents, replacement metadata, policy learning state
// and cluster classification all keep evolving; that is the whole point of
// the warming gap.
func (p *corePath) FunctionalAccess(addr uint64, write bool, pc uint64) {
	p.funcAccess(addr, write, pc, true)
}

// funcAccess is access without time: same lookups, same order, no
// reservations.
func (p *corePath) funcAccess(block uint64, write bool, pc uint64, demand bool) {
	p.scratchL1 = cache.Access{Block: block, Core: 0, PC: pc, Write: write, Demand: demand}
	r1 := p.l1.Access(&p.scratchL1)
	if r1.EvictedValid && r1.Evicted.Dirty {
		p.funcWritebackToL2(r1.Evicted.Block)
	}
	if r1.Hit {
		return
	}

	if demand && p.cfg.NextLinePrefetch {
		p.funcAccess(block+1, false, pc, false)
	}

	p.scratchL2 = cache.Access{Block: block, Core: 0, PC: pc, Write: write, Demand: demand}
	r2 := p.l2.Access(&p.scratchL2)
	if r2.EvictedValid && r2.Evicted.Dirty {
		p.sub.writebackFunc(p.id, r2.Evicted.Block)
	}
	if r2.Hit {
		return
	}

	p.sub.fetchFunc(p.id, block, pc, write, demand)
}

// funcWritebackToL2 is writebackToL2 without time.
func (p *corePath) funcWritebackToL2(block uint64) {
	p.scratchWB = cache.Access{Block: block, Core: 0, Write: true, Demand: false, Writeback: true}
	r := p.l2.Access(&p.scratchWB)
	if r.EvictedValid && r.Evicted.Dirty {
		p.sub.writebackFunc(p.id, r.Evicted.Block)
	}
}

// writebackToL2 handles a dirty L1 victim: state-only write into the L2
// (the L1-L2 interconnect is not a bottleneck in this study).
func (p *corePath) writebackToL2(block uint64, now uint64) {
	p.scratchWB = cache.Access{Block: block, Core: 0, Write: true, Demand: false, Writeback: true}
	r := p.l2.Access(&p.scratchWB)
	if r.EvictedValid && r.Evicted.Dirty {
		p.writebackToLLC(r.Evicted.Block, now)
	}
}

// writebackToLLC handles a dirty L2 victim: it occupies a private L2
// write-back buffer entry, then drains across the sharing boundary.
func (p *corePath) writebackToLLC(block uint64, now uint64) {
	at := p.wb.Reserve(now)
	done := p.sub.Writeback(p.id, block, at)
	p.wb.Occupy(now, done)
}
