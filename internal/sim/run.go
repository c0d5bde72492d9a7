package sim

import (
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// AppResult is one application's measured behaviour over the measurement
// window.
type AppResult struct {
	Instructions uint64
	Cycles       uint64
	IPC          float64

	// L2MPKI is L2 demand misses (= LLC demand accesses) per kilo
	// instruction, the intensity metric of Tables 4/5.
	L2MPKI float64
	// LLCMPKI is LLC demand misses per kilo instruction, the per-app metric
	// of Figures 1b/1c/4/5.
	LLCMPKI float64

	LLCDemandAccesses uint64
	LLCDemandMisses   uint64
	LLCBypasses       uint64

	// ArbiterMeanWait is the application's mean queueing delay (cycles per
	// request) at the VPC arbiter in front of the LLC banks — the per-app
	// fairness diagnostic of the shared-LLC substrate.
	ArbiterMeanWait float64

	// ArbiterWaitHist is the application's full wait *distribution* at the
	// VPC arbiter over arbiter.WaitBuckets fixed power-of-two buckets.
	// Means are insensitive to burstiness; the tail mass here is what
	// LFOC+-style fairness accounting compares across calm/burst mixes.
	ArbiterWaitHist arbiter.WaitHist

	// Cluster is the app's final classification under the LFOC clustering
	// layer ("stream", "light", "sensitive"; "unclassified" before the first
	// epoch) and ClusterWays its final fill-way quota. Empty/zero when
	// clustering is disabled.
	Cluster     string
	ClusterWays int

	// Sampled carries the sampled-fidelity estimator's uncertainty (window
	// count, confidence intervals, IPC coefficient of variation); zero on
	// fully-detailed runs. Excluded from the result digest so that the
	// pre-sampling golden-fingerprint corpus stays byte-identical — see
	// SampleEstimate.
	Sampled SampleEstimate `fingerprint:"-"`
}

// Result is one workload run. DRAMRowHitRate, DRAMBanks and the per-app
// arbiter-wait fields summarise the substrate's behaviour (diagnostics).
type Result struct {
	Apps           []AppResult
	DRAMRowHitRate float64

	// DRAMBanks is the per-bank DRAM counter snapshot for the measurement
	// window — row hits/conflicts and queueing per bank, now a defensible
	// measured claim because row state lives on the reservation timeline.
	DRAMBanks []mem.BankStats
}

// IPCs returns the per-app shared-mode IPC vector.
func (r Result) IPCs() []float64 {
	out := make([]float64, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = a.IPC
	}
	return out
}

// frontier is a binary min-heap of cores ordered lexicographically by
// (clock, core index) — the event loop's execution order. The ordering is
// total and deterministic, which is what makes clock ties (frequent, since
// cores start aligned) batch-invariant.
//
// Each entry packs both sort fields into one word, clock<<shift | index:
// one load and one integer compare per heap comparison instead of two
// loads and up to two compares, on what profiles show is the serial loop's
// hottest non-simulation code. shift is sized to the core count, so the clock keeps
// at least 54 bits of headroom at any realistic scale. Keys are unique
// (the index bits differ), so strict < is a total order identical to the
// (clock, idx) pair order.
//
// The loop's access pattern never needs push or pop: the root core runs
// until it stops being the minimum (and on through any private steps it
// may run ahead), so each batch is one root-key update plus one sift-down,
// and the runner-up — the batch limit — is read directly off the root's
// children. The System reuses one frontier across runUntilRetired calls
// (reset keeps the backing array), keeping the measured loop
// allocation-free.
type frontier struct {
	key   []uint64 // clock<<shift | core index
	shift uint     // index bits
	mask  uint64   // low shift bits
}

// reset empties the heap (retaining capacity) and sizes the index field for
// n cores.
func (h *frontier) reset(n int) {
	h.key = h.key[:0]
	h.shift = uint(bits.Len(uint(n - 1)))
	h.mask = uint64(1)<<h.shift - 1
}

// add appends a core before the first build; build establishes the heap.
func (h *frontier) add(clock uint64, idx int) {
	h.key = append(h.key, h.keyOf(clock, idx))
}

func (h *frontier) build() {
	for i := len(h.key)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// keyOf packs (clock, idx) into a heap key.
func (h *frontier) keyOf(clock uint64, idx int) uint64 { return clock<<h.shift | uint64(idx) }

// rootIdx returns the core index at the heap root.
func (h *frontier) rootIdx() int { return int(h.key[0] & h.mask) }

// clockAt returns the clock stored in heap slot i.
func (h *frontier) clockAt(i int) uint64 { return h.key[i] >> h.shift }

// idxAt returns the core index stored in heap slot i.
func (h *frontier) idxAt(i int) int { return int(h.key[i] & h.mask) }

// updateRoot replaces the root's clock (it only ever grows) and restores
// heap order.
func (h *frontier) updateRoot(clock uint64) {
	h.key[0] = clock<<h.shift | h.key[0]&h.mask
	h.siftDown(0)
}

func (h *frontier) siftDown(i int) {
	n := len(h.key)
	k := h.key
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && k[l] < k[m] {
			m = l
		}
		if r < n && k[r] < k[m] {
			m = r
		}
		if m == i {
			return
		}
		k[i], k[m] = k[m], k[i]
		i = m
	}
}

// runnerUp returns the heap slot of the second core in (clock, idx) order —
// always one of the root's children — or -1 for a single-core frontier.
func (h *frontier) runnerUp() int {
	switch {
	case len(h.key) < 2:
		return -1
	case len(h.key) == 2 || h.key[1] < h.key[2]:
		return 1
	default:
		return 2
	}
}

// SetMaxBatch caps how many steps a core may execute per event-loop batch,
// its run-ahead steps included. Zero (the default) is adaptive: a batch runs
// until the core stops being the globally earliest runnable core and then
// on through its private steps (see runUntilRetired), which is both the
// fastest and the largest safe batch. The cap exists for tests proving
// batch invariance: any positive value yields bit-identical results to any
// other. SetMaxBatch(1) runs every step in strict (clock, core-index) order,
// one step per batch with no run-ahead, and is the in-order reference the
// invariance tests compare against.
func (s *System) SetMaxBatch(n int) { s.maxBatch = n }

// runUntilRetired advances cores in global-clock order until each has
// retired at least target instructions. If freezeCycles/freezeInstr are
// non-nil, a core's cycle count and retired-instruction count are recorded
// the first time it crosses the target; cores keep running (to preserve
// interference) until every core has crossed.
//
// Ordering contract. A step's key is (the core's clock before the step, core
// index). The reference order runs steps in increasing key order, one at a
// time (SetMaxBatch(1)), and stops right after the step at which the last
// core short of the target crosses it; call that step's key K*. Every step
// that touches state outside its core keeps that order: it runs only while
// its core is the frontier's root and its key is below the runner-up's.
// Batching that way never relaxes the order.
//
// A private step (cpu.Prober: its block hits the core's L1) touches only the
// core, its op ring and generator, and its L1, and no other core's step
// touches those, so it commutes with every other core's step: the loop may
// run it ahead of the global minimum (cpu.Core.RunAhead) without changing
// any state another step reads. Two bounds keep the set of executed steps
// the reference's, each core's steps with keys below K* plus the step at K*:
//
//   - No early crossing: a core short of the target runs no crossing step
//     ahead of order (RunAhead's retireAt), so crossings run in increasing
//     key order and the last one executed is K*.
//   - The horizon: a core that has crossed runs ahead only below H, the
//     largest key at which a core short of the target has been seen
//     pending (at entry or after one of its batches). That core crosses at
//     or after that key, so H ≤ K*. The core-index tie-break applies at
//     equal clocks. The horizon also ends the loop: without it, a crossed
//     core whose ops all hit its L1 would never stop.
//
// The executed steps, and therefore every Result bit and every cache line,
// are thus independent of batch size; see TestBatchInvariance and
// TestRunAheadMatchesInOrder.
func (s *System) runUntilRetired(target uint64, freezeCycles, freezeInstr []uint64) {
	n := len(s.cores)
	record := func(i int) {
		if freezeCycles != nil {
			freezeCycles[i] = s.cores[i].Clock()
		}
		if freezeInstr != nil {
			freezeInstr[i] = s.cores[i].Retired()
		}
	}

	// Participants: every core joins the frontier. Cores already at or past
	// the target — at entry (sampled-mode windows re-enter with fast cores
	// ahead of the next boundary) or crossing mid-run — are recorded
	// immediately but keep executing (to preserve contention) until every
	// core short of the target has crossed. The frontier and done scratch
	// live on the System so steady-state calls (one per measurement window,
	// or per step of the allocation gate) allocate nothing.
	h := &s.frontier
	h.reset(n)
	if len(s.doneScratch) < n {
		s.doneScratch = make([]bool, n)
	}
	done := s.doneScratch[:n]
	for i := range done {
		done[i] = false
	}
	remaining := 0
	horizon := uint64(0) // H, as a frontier key
	for i, c := range s.cores {
		if c.Retired() >= target {
			done[i] = true
			record(i)
		} else {
			remaining++
			horizon = max(horizon, h.keyOf(c.Clock(), i))
		}
		h.add(c.Clock(), i)
	}
	h.build()

	const noLimit = ^uint64(0)
	for remaining > 0 {
		best := h.rootIdx()
		limit, yieldAtTie := noLimit, false
		if ru := h.runnerUp(); ru >= 0 {
			limit = h.clockAt(ru)
			yieldAtTie = h.idxAt(ru) < best
		}
		// A core short of the target stops before its crossing step; one
		// that has crossed stops at H, which at equal clocks it is below
		// only if H's core index is higher.
		retireAt, hClock, hTie := target, noLimit, false
		if done[best] {
			retireAt = 0
			hClock, hTie = horizon>>h.shift, int(horizon&h.mask) <= best
		}

		c := s.cores[best]
		clock := c.RunAhead(limit, yieldAtTie, s.maxBatch, retireAt, hClock, hTie, s.paths[best])
		h.updateRoot(clock)
		switch {
		case done[best]:
		case c.Retired() >= target:
			done[best] = true
			remaining--
			record(best)
		default:
			horizon = max(horizon, h.keyOf(clock, best))
		}
	}
}

// Run simulates warmup instructions per application (policy and cache state
// learn, statistics discarded), then measures measure instructions per
// application and returns the per-application results. Applications that
// reach their measurement target keep executing until the last one
// finishes, exactly as the paper re-executes finished applications to
// preserve contention.
//
// The measured budget runs as the windows of SampleConfig.plan, each a
// functional-warming gap, a detailed re-warm and a measured detailed span.
// A fully-detailed config is the one-window plan with no gap and no
// re-warm, so its one window is the whole budget. Under Config.Sample the
// warm-up opens with a short detailed pilot span (seeding the per-core
// retirement-rate estimates that schedule functional interleaving) and
// warms the rest functionally, and every measured window re-estimates each
// core's rate; the budgets keep their meaning, but only the detailed
// windows are measured.
//
// Per-app IPC and MPKI are ratios over the union of measured windows, and
// Instructions, Cycles and the LLC demand counters sum them. Arbiter wait
// statistics and DRAM diagnostics accumulate over every detailed phase after
// the warm-up boundary (re-warm and measured); the functional gaps never
// touch arbiter or DRAM state. Sampled runs also carry per-window confidence
// diagnostics in AppResult.Sampled.
func (s *System) Run(warmup, measure uint64) Result {
	sampled := s.cfg.Sample.Enabled()
	p := s.cfg.Sample.plan(measure)
	n := len(s.cores)
	rates := newSampleRates(n)
	switch {
	case warmup == 0:
	case sampled:
		pilotC := make([]uint64, n)
		pilotI := make([]uint64, n)
		s.runUntilRetired(min(p.detail, warmup), pilotC, pilotI)
		for i := 0; i < n; i++ {
			rates.observe(i, pilotI[i], pilotC[i])
		}
		s.runFunctionalUntil(warmup, p.quantum, rates)
	default:
		s.runUntilRetired(warmup, nil, nil)
	}
	s.resetAtWarmBoundary()

	windows := int(p.windows)
	var (
		instrSum = make([]uint64, n)
		cycleSum = make([]uint64, n)
		accSum   = make([]uint64, n)
		missSum  = make([]uint64, n)
		bypSum   = make([]uint64, n)

		ipcW = make([][]float64, n)
		l2W  = make([][]float64, n)
		llcW = make([][]float64, n)

		startC = make([]uint64, n)
		startI = make([]uint64, n)
		endC   = make([]uint64, n)
		endI   = make([]uint64, n)
		accA   = make([]uint64, n)
		missA  = make([]uint64, n)
		bypA   = make([]uint64, n)
	)

	llcStats := s.sub.llc.Stats()
	for w := 0; w < windows; w++ {
		windowEnd := p.windowEnd(w)
		warmTarget := windowEnd - p.detail
		gapTarget := warmTarget - p.warm

		// Functional gap, then detailed timing re-warm. The re-warm run
		// records each core's (clock, retired) at its warm-target crossing:
		// that is the measured window's start point, as the window run
		// below freezes each core's end point at its own crossing. In the
		// one-window plan both targets are 0 right after the warm-up reset,
		// so neither call runs anything.
		s.runFunctionalUntil(gapTarget, p.quantum, rates)
		s.runUntilRetired(warmTarget, startC, startI)
		for i := 0; i < n; i++ {
			accA[i] = llcStats.DemandAccesses[i]
			missA[i] = llcStats.DemandMisses[i]
			bypA[i] = llcStats.Bypasses[i]
		}

		s.runUntilRetired(windowEnd, endC, endI)
		for i := 0; i < n; i++ {
			di := endI[i] - startI[i]
			dc := endC[i] - startC[i]
			rates.observe(i, di, dc)
			instrSum[i] += di
			cycleSum[i] += dc
			da := llcStats.DemandAccesses[i] - accA[i]
			dm := llcStats.DemandMisses[i] - missA[i]
			accSum[i] += da
			missSum[i] += dm
			bypSum[i] += llcStats.Bypasses[i] - bypA[i]
			if dc > 0 {
				ipcW[i] = append(ipcW[i], float64(di)/float64(dc))
			}
			l2W[i] = append(l2W[i], metrics.MPKI(da, di))
			llcW[i] = append(llcW[i], metrics.MPKI(dm, di))
		}
	}

	res := Result{Apps: make([]AppResult, n)}
	for i := 0; i < n; i++ {
		// Point estimates are ratios over the union of measured windows
		// (Σinstr/Σcycles, Σmisses/Σinstr). Averaging per-window IPCs
		// instead would overestimate any app whose speed varies across
		// windows (the arithmetic mean of rates exceeds the cycle-weighted
		// rate); the per-window samples feed only the confidence
		// diagnostics in Sampled.
		app := AppResult{
			Instructions:      instrSum[i],
			Cycles:            cycleSum[i],
			L2MPKI:            metrics.MPKI(accSum[i], instrSum[i]),
			LLCMPKI:           metrics.MPKI(missSum[i], instrSum[i]),
			LLCDemandAccesses: accSum[i],
			LLCDemandMisses:   missSum[i],
			LLCBypasses:       bypSum[i],
			ArbiterMeanWait:   s.sub.arb.MeanWait(i),
			ArbiterWaitHist:   s.sub.arb.WaitHistOf(i),
		}
		if cycleSum[i] > 0 {
			app.IPC = float64(instrSum[i]) / float64(cycleSum[i])
		}
		if sampled {
			ipcInt := metrics.MeanInterval(ipcW[i])
			app.Sampled = SampleEstimate{
				Windows:   windows,
				IPCCI:     ipcInt.CI,
				IPCCV:     ipcInt.CV,
				L2MPKICI:  metrics.MeanInterval(l2W[i]).CI,
				LLCMPKICI: metrics.MeanInterval(llcW[i]).CI,
			}
		}
		if m := s.sub.cluster; m != nil {
			app.Cluster = m.Classes()[i].String()
			app.ClusterWays = m.WaysOf(i)
		}
		res.Apps[i] = app
	}
	res.DRAMRowHitRate = s.sub.dram.Stats().RowHitRate()
	res.DRAMBanks = s.sub.dram.BankStats()
	return res
}

// resetAtWarmBoundary resets statistics at the warm-up boundary;
// microarchitectural state (cache contents, policy learning, bank timelines
// and open rows, in-flight misses) carries over. Core clocks keep running:
// each measured window takes its cycle origin from its own start point.
func (s *System) resetAtWarmBoundary() {
	for i, c := range s.cores {
		c.ResetStats()
		s.paths[i].l1.Stats().Reset()
		s.paths[i].l2.Stats().Reset()
	}
	s.sub.llc.Stats().Reset()
	s.sub.dram.ResetStats()
	s.sub.arb.ResetStats()
}
