package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/arbiter"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// llcPolicies are the LLC policies every traced pass replays its L2-miss
// stream under: the paper's baselines and both ADAPT variants.
var llcPolicies = []string{"lru", "tadrrip", "ship", "eaf", "adapt", "adapt-ins"}

// chunkCalls is how many consecutive calls one timing sample covers: long
// enough that the two clock reads vanish against the work, short enough to
// give a distribution over a replay.
const chunkCalls = 1024

// replayChunks is how many chunks the trace and cpu replays time (they can
// run any number of calls): enough for a p99 with ten samples beyond it.
const replayChunks = 1024

// timeChunks calls fn(i) for every i in [0, n) and returns, for each full
// chunk of chunkCalls consecutive calls, the mean nanoseconds per call.
func timeChunks(n int, fn func(i int)) []float64 {
	var out []float64
	for start := 0; start+chunkCalls <= n; start += chunkCalls {
		t0 := time.Now()
		for i := start; i < start+chunkCalls; i++ {
			fn(i)
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/chunkCalls)
	}
	return out
}

// llcEvent is one request crossing from a private L2 into the shared
// substrate: a fetch (an L2 miss, demand or prefetch) or the write-back of
// a dirty L2 victim. clock is the issuing core's estimated cycle.
type llcEvent struct {
	clock     uint64
	core      int
	block, pc uint64
	write     bool
	demand    bool
	writeback bool
}

// dramEvent is one DRAM access the LLC replay produced, charged to the
// core whose request caused it.
type dramEvent struct {
	clock uint64
	core  int
	block uint64
	write bool
}

// hierarchy is one core's private L1/L2 pair, built and walked the way the
// simulator's per-core path is (internal/sim corePath.access): L1 lookup,
// dirty-victim write-back into the L2, next-line prefetch on a demand L1
// miss, L2 lookup, dirty-victim write-back towards the LLC, then the fetch.
// Private cache state depends only on the core's own op stream, so the
// walk reproduces the simulator's L1/L2 contents exactly; with record set
// it also keeps every L1 and L2 call and every substrate request.
type hierarchy struct {
	cfg    *sim.Config
	core   int
	l1, l2 *cache.Cache
	clock  uint64

	record  bool
	l1Calls []cache.Access
	l2Calls []cache.Access
	events  []llcEvent
}

func newL1(cfg *sim.Config) *cache.Cache {
	g := cache.Geometry{Sets: cfg.L1Sets, Ways: cfg.L1Ways, Cores: 1}
	return cache.New(cache.Config{Name: "l1", Geometry: g, BlockBytes: cfg.BlockBytes, HitLatency: cfg.L1Latency}, policy.NewLRU(g))
}

// newL2 builds core's L2 with the simulator's per-core policy seed.
func newL2(cfg *sim.Config, core int) (*cache.Cache, error) {
	g := cache.Geometry{Sets: cfg.L2Sets, Ways: cfg.L2Ways, Cores: 1}
	pol, err := policy.New(cfg.L2Policy, g, policy.Options{Seed: cfg.Seed + uint64(core)*977})
	if err != nil {
		return nil, err
	}
	return cache.New(cache.Config{Name: "l2", Geometry: g, BlockBytes: cfg.BlockBytes, HitLatency: cfg.L2Latency}, pol), nil
}

func newLLC(cfg *sim.Config, name string) (*cache.Cache, error) {
	g := cache.Geometry{Sets: cfg.LLCSets, Ways: cfg.LLCWays, Cores: cfg.Cores}
	pol, err := policy.New(name, g, cfg.PolicyOpt)
	if err != nil {
		return nil, err
	}
	return cache.New(cache.Config{Name: "llc", Geometry: g, BlockBytes: cfg.BlockBytes, HitLatency: cfg.LLCLatency}, pol), nil
}

func newHierarchy(cfg *sim.Config, core int, record bool) (*hierarchy, error) {
	l2, err := newL2(cfg, core)
	if err != nil {
		return nil, err
	}
	return &hierarchy{cfg: cfg, core: core, l1: newL1(cfg), l2: l2, record: record}, nil
}

func (h *hierarchy) access(block uint64, write bool, pc uint64, demand bool) {
	a := cache.Access{Block: block, PC: pc, Write: write, Demand: demand}
	if h.record {
		h.l1Calls = append(h.l1Calls, a)
	}
	r1 := h.l1.Access(&a)
	if r1.EvictedValid && r1.Evicted.Dirty {
		h.l2Access(cache.Access{Block: r1.Evicted.Block, Write: true, Writeback: true})
	}
	if r1.Hit {
		return
	}
	if demand && h.cfg.NextLinePrefetch {
		h.access(block+1, false, pc, false)
	}
	if h.l2Access(cache.Access{Block: block, PC: pc, Write: write, Demand: demand}) {
		return
	}
	h.emit(llcEvent{block: block, pc: pc, write: write, demand: demand})
}

// l2Access presents a to the L2, forwarding a dirty victim towards the LLC,
// and reports whether it hit.
func (h *hierarchy) l2Access(a cache.Access) bool {
	if h.record {
		h.l2Calls = append(h.l2Calls, a)
	}
	r := h.l2.Access(&a)
	if r.EvictedValid && r.Evicted.Dirty {
		h.emit(llcEvent{block: r.Evicted.Block, write: true, writeback: true})
	}
	return r.Hit
}

func (h *hierarchy) emit(e llcEvent) {
	if h.record {
		e.clock, e.core = h.clock, h.core
		h.events = append(h.events, e)
	}
}

// fixedMem is the cpu replay's memory: every access completes a fixed
// number of cycles after it issues.
type fixedMem uint64

func (m fixedMem) Access(_ int, now uint64, _ uint64, _ bool, _ uint64) uint64 {
	return now + uint64(m)
}

// layerReplay holds the replay timings of one captured job, per-chunk ns
// per call for each layer, and per core the calls each layer received for
// the ops walked, which scale the costs to a whole run.
type layerReplay struct {
	chunks map[string][]float64 // metric name -> ns per call, per chunk
	cores  []layerCalls
}

// layerCalls counts one core's calls into each layer over its walked ops.
type layerCalls struct {
	ops  float64
	l1   float64 // L1 accesses
	l2   float64 // L2 accesses
	llc  float64 // substrate requests: LLC calls, arbiter grants
	pool float64 // MSHR / write-back pool reservations
	mem  float64 // DRAM accesses
}

// perOp returns the calls per op of every layer, weighting each core by
// weights[i], its share of the whole run's ops: fast cores run far more
// ops than slow ones (they re-execute while the slow ones finish), so an
// unweighted mean of the captured prefixes would overstate the substrate.
func (lr *layerReplay) perOp(weights []float64) layerCalls {
	var out layerCalls
	var total float64
	for i, c := range lr.cores {
		w := weights[i] / c.ops
		total += weights[i]
		out.l1 += w * c.l1
		out.l2 += w * c.l2
		out.llc += w * c.llc
		out.pool += w * c.pool
		out.mem += w * c.mem
	}
	out.l1 /= total
	out.l2 /= total
	out.llc /= total
	out.pool /= total
	out.mem /= total
	return out
}

// replayLayers times each layer alone on the captured streams of one job.
// captured holds each core's op stream prefix; ipc each core's measured
// IPC, which turns instruction counts into the estimated clocks the
// substrate streams are merged by.
func replayLayers(cfg sim.Config, names []string, captured [][]trace.Op, ipc []float64, rec *spanRecorder, parent int) (*layerReplay, error) {
	lr := &layerReplay{chunks: map[string][]float64{}, cores: make([]layerCalls, len(captured))}
	span := func(name string, fn func()) {
		id := rec.begin("replay "+name, parent)
		fn()
		rec.end(id)
	}
	nsPerCall := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / chunkCalls }

	// Trace generation: fresh generators of the same specs, one
	// cpu-ring-sized NextBatch at a time, cores in turn.
	span("trace", func() {
		gens := specGenerators(cfg, names)
		batch := make([]trace.Op, cpu.DefaultTraceBatch)
		for c := 0; c < replayChunks; c++ {
			g := gens[c%len(gens)]
			t0 := time.Now()
			for k := 0; k < chunkCalls/len(batch); k++ {
				trace.FillBatch(g, batch)
			}
			lr.chunks["trace.ns_per_op"] = append(lr.chunks["trace.ns_per_op"], nsPerCall(t0))
		}
	})

	// Core stepping against a fixed-latency memory, on the captured ops.
	span("cpu", func() {
		cores := make([]*cpu.Core, len(captured))
		for i, ops := range captured {
			cores[i] = cpu.New(cpu.Config{ID: i, Width: cfg.CPUWidth, ROB: cfg.CPUROB, MaxOutstanding: cfg.CPUMaxOutstanding},
				&replayGen{ops: ops}, fixedMem(cfg.L1Latency+cfg.L2Latency))
		}
		for c := 0; c < replayChunks; c++ {
			t0 := time.Now()
			cores[c%len(cores)].RunBatch(^uint64(0), false, chunkCalls, 0)
			lr.chunks["cpu.ns_per_step"] = append(lr.chunks["cpu.ns_per_step"], nsPerCall(t0))
		}
	})

	// Walk every core's captured ops through its private hierarchy,
	// recording the L1 calls, the L2 calls and the substrate requests; the
	// timed replays below run each recorded call sequence on fresh caches.
	var events []llcEvent
	l1Calls := make([][]cache.Access, len(captured))
	l2Calls := make([][]cache.Access, len(captured))
	l1s := make([]*cache.Cache, len(captured))
	l2s := make([]*cache.Cache, len(captured))
	for i, ops := range captured {
		h, err := newHierarchy(&cfg, i, true)
		if err != nil {
			return nil, err
		}
		cpi := 1.0
		if i < len(ipc) && ipc[i] > 0 {
			cpi = 1 / ipc[i]
		}
		var instr uint64
		for _, op := range ops {
			instr += uint64(op.Gap)
			h.clock = uint64(float64(instr) * cpi)
			h.access(op.Addr, op.Write, op.PC, true)
			instr++
		}
		lr.cores[i] = layerCalls{ops: float64(len(ops)), l1: float64(len(h.l1Calls)), l2: float64(len(h.l2Calls)), llc: float64(len(h.events))}
		l1Calls[i], l2Calls[i] = h.l1Calls, h.l2Calls
		events = append(events, h.events...)
		l1s[i] = newL1(&cfg)
		if l2s[i], err = newL2(&cfg, i); err != nil {
			return nil, err
		}
	}
	// Merge the cores' substrate requests by estimated clock; a core's own
	// requests keep their order.
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].clock != events[b].clock {
			return events[a].clock < events[b].clock
		}
		return events[a].core < events[b].core
	})

	for _, private := range []struct {
		name   string
		calls  [][]cache.Access
		caches []*cache.Cache
	}{
		{"cache.l1_ns_per_access", l1Calls, l1s},
		{"cache.l2_ns_per_access", l2Calls, l2s},
	} {
		span(private.name, func() {
			for i, cs := range private.calls {
				c := private.caches[i]
				lr.chunks[private.name] = append(lr.chunks[private.name], timeChunks(len(cs), func(k int) { c.Access(&cs[k]) })...)
			}
		})
	}

	// The LLC under each policy. An untimed pass under the job's own policy
	// first derives the DRAM stream: fills, dirty victims and write-throughs.
	dram, err := llcDRAMStream(&cfg, events)
	if err != nil {
		return nil, err
	}
	for _, name := range llcPolicies {
		llc, err := newLLC(&cfg, name)
		if err != nil {
			return nil, err
		}
		span("llc "+name, func() {
			var a cache.Access
			lr.chunks["llc.ns_per_access."+name] = timeChunks(len(events), func(k int) {
				e := &events[k]
				a = cache.Access{Block: e.block, Core: e.core, PC: e.pc, Write: e.write, Demand: e.demand, Writeback: e.writeback}
				if e.writeback {
					llc.WritebackNoAllocate(&a)
				} else {
					llc.Access(&a)
				}
			})
		})
	}

	span("arbiter", func() {
		arb := arbiter.New(cfg.Arb)
		setMask := uint64(cfg.LLCSets - 1)
		lr.chunks["arbiter.ns_per_grant"] = timeChunks(len(events), func(k int) {
			e := &events[k]
			arb.Schedule(e.core, arb.BankOf(int(e.block&setMask)), e.clock)
		})
	})

	// Each core's L2 MSHRs take its fetches and its write-back buffer its
	// dirty victims, every entry held for an LLC hit plus a DRAM row hit.
	span("pool", func() {
		mshr := make([]*cache.TimedPool, cfg.Cores)
		wb := make([]*cache.TimedPool, cfg.Cores)
		for i := range mshr {
			mshr[i] = cache.NewTimedPool(cfg.L2MSHRs)
			wb[i] = cache.NewTimedPool(cfg.L2WBEntries)
		}
		busy := cfg.LLCLatency + cfg.Mem.RowHitLatency
		lr.chunks["pool.ns_per_reserve"] = timeChunks(len(events), func(k int) {
			e := &events[k]
			p := mshr[e.core]
			if e.writeback {
				p = wb[e.core]
			}
			at := p.Reserve(e.clock)
			p.Occupy(e.clock, at+busy)
		})
	})

	span("mem", func() {
		d := mem.New(cfg.Mem)
		lr.chunks["mem.ns_per_access"] = timeChunks(len(dram), func(k int) {
			e := &dram[k]
			d.Access(e.clock, e.block, e.write)
		})
	})

	// The simulator reserves a pool entry for every substrate request and
	// every DRAM access (the per-bank LLC MSHRs and write-back buffers).
	for _, e := range dram {
		lr.cores[e.core].mem++
	}
	for i := range lr.cores {
		lr.cores[i].pool = lr.cores[i].llc + lr.cores[i].mem
	}
	return lr, nil
}

// llcDRAMStream replays events through an LLC under the job's own policy
// and returns the DRAM accesses it causes, in order: a read per fetch that
// misses (allocated or bypassed), a write per dirty victim, and a write per
// write-back that finds no LLC copy.
func llcDRAMStream(cfg *sim.Config, events []llcEvent) ([]dramEvent, error) {
	llc, err := newLLC(cfg, cfg.LLCPolicy)
	if err != nil {
		return nil, err
	}
	var out []dramEvent
	for i := range events {
		e := &events[i]
		a := cache.Access{Block: e.block, Core: e.core, PC: e.pc, Write: e.write, Demand: e.demand, Writeback: e.writeback}
		if e.writeback {
			if !llc.WritebackNoAllocate(&a) {
				out = append(out, dramEvent{clock: e.clock, core: e.core, block: e.block, write: true})
			}
			continue
		}
		r := llc.Access(&a)
		if r.Hit {
			continue
		}
		out = append(out, dramEvent{clock: e.clock, core: e.core, block: e.block})
		if r.EvictedValid && r.Evicted.Dirty {
			out = append(out, dramEvent{clock: e.clock, core: e.core, block: r.Evicted.Block, write: true})
		}
	}
	return out, nil
}

// replayL2MissErrPct checks the private-hierarchy walk against the
// simulator itself: it runs the job's machine on the captured streams
// (each replayed cyclically) for measure instructions per core with no
// warm-up, so every core's L2 counters cover its whole stream, then walks
// the same ops through replayed L1/L2 pairs. A core executes a prefix of
// the ops it drew (up to a trace ring more are drawn), so each core's walk
// stops at the first op after which its L2 has seen as many accesses as
// the simulator's. It returns the walk's total L2 demand misses relative to
// the simulator's, in percent: exactly 0 for a faithful walk.
func replayL2MissErrPct(cfg sim.Config, captured [][]trace.Op, measure uint64) (float64, error) {
	gens := make([]trace.Generator, len(captured))
	rgs := make([]*replayGen, len(captured))
	for i, ops := range captured {
		rgs[i] = &replayGen{ops: ops}
		gens[i] = rgs[i]
	}
	sys := sim.New(cfg, gens)
	sys.Run(0, measure)

	var simMisses, walkMisses uint64
	for i, rg := range rgs {
		simStats := sys.L2(i).Stats()
		simMisses += simStats.DemandMisses[0]
		h, err := newHierarchy(&cfg, i, false)
		if err != nil {
			return 0, err
		}
		walk := h.l2.Stats()
		for k := uint64(0); k < rg.drawn && walk.Accesses[0] < simStats.Accesses[0]; k++ {
			op := rg.at(k)
			h.access(op.Addr, op.Write, op.PC, true)
		}
		walkMisses += walk.DemandMisses[0]
	}
	if simMisses == 0 {
		return 0, fmt.Errorf("replay check: the simulator saw no L2 demand misses")
	}
	return 100 * (float64(walkMisses) - float64(simMisses)) / float64(simMisses), nil
}
