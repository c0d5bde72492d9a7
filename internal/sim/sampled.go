package sim

import (
	"fmt"

	"repro/internal/metrics"
)

// DefaultSampleQuantum is the functional-warming virtual-cycle quantum when
// SampleConfig.QuantumCycles is zero. Each round-robin pass advances every
// core by its estimated retirement rate times this many virtual cycles, so
// the quantum sets the granularity at which the cores' access streams
// interleave in the shared LLC during functional gaps. Small quanta track
// the fine-grained interleaving of detailed timing (a core's reuse window
// sees foreign insertions in realistic proportion); large quanta let each
// core stream long private bursts, which flatters its conflict misses.
// The quantum is *visible* in results (it changes the order in which cores
// touch shared cache and policy state), so it participates in the
// fingerprint and is fixed by default.
const DefaultSampleQuantum = 256

// DefaultSampleWindows is the window count SampleConfig.Default uses: enough
// windows for a meaningful coefficient of variation, few enough that the
// per-window detailed warm-up does not dominate the detailed budget.
const DefaultSampleWindows = 20

// SampleConfig selects the sampled-fidelity execution mode: SMARTS-style
// periodic sampling (Wunderlich et al., ISCA 2003) where the measurement
// budget alternates between short *detailed windows* — the full machine,
// unchanged: timeline reservations, arbiter queueing, DRAM row tracking —
// and long *functional-warming gaps* where cores retire the exact same op
// stream while updating only cache and policy state (L1/L2/LLC contents,
// replacement state, SHCT/duel counters, cluster epochs) at nominal fixed
// latencies. Per-app IPC and MPKI are estimated from the detailed windows
// alone, with CV-based confidence intervals in AppResult.Sampled.
//
// The zero value disables sampling (System.Run is the fully-detailed
// reference). The struct participates in Config.Fingerprint: a sampled run
// is a different (approximate) simulation and must never share memoized
// results with the detailed reference.
type SampleConfig struct {
	// Windows is the number of detailed measurement windows the measured
	// budget is split into. Zero disables sampling entirely.
	Windows int

	// DetailInstr is the measured detailed-window length per app in
	// instructions. Zero derives a default from the budget: period/8 where
	// period = measure/Windows.
	DetailInstr uint64

	// WarmInstr is the *detailed* warm-up run immediately before each
	// measured window (timing state — MSHR and write-back occupancy, bank
	// timelines, open DRAM rows, arbiter queues — is stale after a
	// functional gap and must re-converge under full timing before
	// measurement). Zero derives DetailInstr/2.
	WarmInstr uint64

	// QuantumCycles is the functional round-robin quantum in virtual cycles
	// (0 = DefaultSampleQuantum). Deterministic and fingerprinted; see
	// DefaultSampleQuantum.
	QuantumCycles uint64
}

// Enabled reports whether sampled fidelity is selected.
func (sc SampleConfig) Enabled() bool { return sc.Windows > 0 }

// DefaultSample returns the standard sampled-fidelity configuration:
// DefaultSampleWindows windows with budget-derived window geometry.
func DefaultSample() SampleConfig {
	return SampleConfig{Windows: DefaultSampleWindows}
}

// Validate reports whether the sampling configuration is usable on its own;
// budget-dependent feasibility (the per-window detailed span must fit the
// window period) is checked at Run time, when the measured budget is known.
func (sc SampleConfig) Validate() error {
	if sc.Windows < 0 {
		return fmt.Errorf("sim: Sample.Windows must be non-negative, got %d", sc.Windows)
	}
	return nil
}

// samplePlan is the resolved per-window instruction layout for one measured
// budget: Windows windows, each ending at windowEnd(w) cumulative retired
// instructions, laid out gap | warm | detail back to front inside the
// window.
type samplePlan struct {
	windows uint64
	measure uint64
	detail  uint64
	warm    uint64
	quantum uint64
}

// plan resolves the sampling layout for a measured budget, deriving
// defaults and validating feasibility. It panics on an infeasible explicit
// configuration, matching New's loud-failure convention for bad configs.
func (sc SampleConfig) plan(measure uint64) samplePlan {
	p := samplePlan{windows: uint64(sc.Windows), measure: measure}
	period := measure / p.windows
	if period == 0 {
		panic(fmt.Sprintf("sim: sampled mode needs at least one instruction per window (%d windows over %d measured)", sc.Windows, measure))
	}
	p.detail = sc.DetailInstr
	if p.detail == 0 {
		p.detail = period / 8
		if p.detail == 0 {
			p.detail = 1
		}
	}
	p.warm = sc.WarmInstr
	if p.warm == 0 {
		p.warm = p.detail / 2
	}
	if p.detail+p.warm > period {
		panic(fmt.Sprintf("sim: sampled window does not fit its period: detail %d + warm %d > %d (= %d measured / %d windows)",
			p.detail, p.warm, period, measure, sc.Windows))
	}
	p.quantum = sc.QuantumCycles
	if p.quantum == 0 {
		p.quantum = DefaultSampleQuantum
	}
	return p
}

// windowEnd returns the cumulative retired-instruction target at which
// window w (0-based) ends. The rounding spreads any measure%windows
// remainder across windows so the final window ends exactly at measure.
func (p samplePlan) windowEnd(w int) uint64 {
	return uint64(w+1) * p.measure / p.windows
}

// SampleEstimate carries the sampled-mode estimator's uncertainty for one
// application: the window count and the 95% confidence half-widths
// (1.96·s/√W over the per-window samples) plus the coefficient of variation
// of the per-window IPCs. Zero-valued on fully-detailed runs.
//
// The field is excluded from Result.Fingerprint (tagged `fingerprint:"-"`
// on AppResult): the estimate is a deterministic function of the same run,
// but keeping it out of the digest is what lets every pre-existing golden
// fingerprint — pinned before sampling existed — stay byte-identical.
type SampleEstimate struct {
	// Windows is the number of detailed windows the estimate averages.
	Windows int
	// IPCCI is the 95% confidence half-width of the IPC estimate.
	IPCCI float64
	// IPCCV is the coefficient of variation (s/mean) of per-window IPCs —
	// the SMARTS convergence diagnostic: a high CV means the window count
	// is too small for this application's phase behaviour.
	IPCCV float64
	// L2MPKICI and LLCMPKICI are the 95% confidence half-widths of the
	// MPKI estimates.
	L2MPKICI  float64
	LLCMPKICI float64
}

// sampleRates holds the per-core retirement-rate estimates that schedule
// functional warming: exact integer ratios instr[i]/cycles[i] measured from
// detailed execution (the pilot span at the start of warm-up, then each
// detailed window). rem carries the integer division remainder between
// round-robin passes so the long-run functional instruction mix converges
// to the measured rates exactly.
//
// Rate-proportional interleaving is a fidelity requirement, not a
// refinement: a plain equal-instructions round-robin over-represents slow
// memory-bound cores in the shared LLC (each of their instructions carries
// far more misses), building cache and policy state the detailed windows
// then measure against. Scheduling each core's functional share by its
// measured instructions-per-cycle reproduces the insertion mix the timed
// machine would have produced.
type sampleRates struct {
	instr  []uint64
	cycles []uint64
	rem    []uint64
}

func newSampleRates(n int) *sampleRates {
	r := &sampleRates{
		instr:  make([]uint64, n),
		cycles: make([]uint64, n),
		rem:    make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		r.instr[i], r.cycles[i] = 1, 1
	}
	return r
}

// observe replaces core i's rate with a freshly measured detailed span.
// Degenerate spans (an entry-crossed window retires nothing) keep the
// previous estimate.
func (r *sampleRates) observe(i int, di, dc uint64) {
	if di == 0 || dc == 0 {
		return
	}
	r.instr[i], r.cycles[i] = di, dc
}

// runFunctionalUntil retires instructions on every core up to target
// (cumulative per-core retired count) in functional-warming mode: a
// virtual-time round-robin. Each pass advances a shared virtual clock by
// quantum cycles and runs core i for
// rates.instr[i]·quantum/rates.cycles[i] instructions (with remainder
// carry), so cores interleave in the shared LLC in proportion to their
// measured retirement rates — the same mix detailed timing would produce —
// at quantum-cycle granularity.
//
// The schedule is a pure integer function of (target, quantum, rates), and
// the rates are themselves measured from detailed spans that are already
// bit-identical across execution knobs — no clocks, no trace-delivery
// batching — so every shared-state update (LLC policy metadata, SHCT/PSEL
// counters, cluster epochs) happens in the same global order whether the
// cores refill through NextBatch or scalar Next, and whatever the
// event-loop batch cap.
func (s *System) runFunctionalUntil(target, quantum uint64, rates *sampleRates) {
	for {
		done := true
		for i, c := range s.cores {
			r := c.Retired()
			if r >= target {
				continue
			}
			done = false
			num := rates.instr[i]*quantum + rates.rem[i]
			run := num / rates.cycles[i]
			rates.rem[i] = num % rates.cycles[i]
			if run == 0 {
				continue
			}
			stop := r + run
			if stop > target {
				stop = target
			}
			c.RunFunctional(stop, s.paths[i])
		}
		if done {
			return
		}
	}
}

// runSampled is Run's sampled-fidelity mode (Config.Sample.Enabled): the
// warm-up budget opens with a short detailed *pilot* span (seeding the
// per-core retirement-rate estimates that schedule functional interleaving)
// and executes the rest in functional-warming mode; then the measured
// budget alternates functional gaps with detailed windows laid out by
// SampleConfig, re-estimating each core's rate from every detailed window.
// Per-app IPC/MPKI are cycle-weighted ratio estimates over the union of
// detailed windows, with per-window confidence diagnostics in
// AppResult.Sampled; Instructions/Cycles and the LLC demand counters sum
// the detailed windows only. Arbiter wait statistics and DRAM diagnostics accumulate over every
// detailed phase (warm and measured) — the functional gaps never touch
// arbiter or DRAM state, so those fields describe detailed execution only.
func (s *System) runSampled(warmup, measure uint64) Result {
	p := s.cfg.Sample.plan(measure)

	n := len(s.cores)
	rates := newSampleRates(n)
	if warmup > 0 {
		pilot := p.detail
		if pilot > warmup {
			pilot = warmup
		}
		pilotC := make([]uint64, n)
		pilotI := make([]uint64, n)
		s.runUntilRetired(pilot, pilotC, pilotI)
		for i := 0; i < n; i++ {
			rates.observe(i, pilotI[i], pilotC[i])
		}
		s.runFunctionalUntil(warmup, p.quantum, rates)
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
	for i := 0; i < n; i++ {
		ipcW[i] = make([]float64, 0, windows)
		l2W[i] = make([]float64, 0, windows)
		llcW[i] = make([]float64, 0, windows)
	}

	llcStats := s.sub.llc.Stats()
	for w := 0; w < windows; w++ {
		windowEnd := p.windowEnd(w)
		warmTarget := windowEnd - p.detail
		gapTarget := warmTarget - p.warm

		// Functional gap, then detailed timing re-warm. The re-warm run
		// records each core's (clock, retired) at its warm-target crossing:
		// that is the measured window's start point, mirroring how the
		// fully-detailed Run freezes counters at target crossings.
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
			db := llcStats.Bypasses[i] - bypA[i]
			accSum[i] += da
			missSum[i] += dm
			bypSum[i] += db
			if dc > 0 {
				ipcW[i] = append(ipcW[i], float64(di)/float64(dc))
			}
			l2W[i] = append(l2W[i], metrics.MPKI(da, di))
			llcW[i] = append(llcW[i], metrics.MPKI(dm, di))
		}
	}

	res := Result{Apps: make([]AppResult, n)}
	for i := 0; i < n; i++ {
		ipcInt := metrics.MeanInterval(ipcW[i])
		l2Int := metrics.MeanInterval(l2W[i])
		llcInt := metrics.MeanInterval(llcW[i])
		// Point estimates are ratios over the union of detailed windows
		// (Σinstr/Σcycles, Σmisses/Σinstr) — the cycle-weighted form the
		// fully-detailed run reduces to with one window. Averaging
		// per-window IPCs instead would overestimate any app whose speed
		// varies across windows (the arithmetic mean of rates exceeds the
		// cycle-weighted rate); the per-window samples feed only the
		// confidence diagnostics in Sampled.
		var ipc float64
		if cycleSum[i] > 0 {
			ipc = float64(instrSum[i]) / float64(cycleSum[i])
		}
		app := AppResult{
			Instructions:      instrSum[i],
			Cycles:            cycleSum[i],
			IPC:               ipc,
			L2MPKI:            metrics.MPKI(accSum[i], instrSum[i]),
			LLCMPKI:           metrics.MPKI(missSum[i], instrSum[i]),
			LLCDemandAccesses: accSum[i],
			LLCDemandMisses:   missSum[i],
			LLCBypasses:       bypSum[i],
			ArbiterMeanWait:   s.sub.arb.MeanWait(i),
			ArbiterWaitHist:   s.sub.arb.WaitHistOf(i),
			Sampled: SampleEstimate{
				Windows:   windows,
				IPCCI:     ipcInt.CI,
				IPCCV:     ipcInt.CV,
				L2MPKICI:  l2Int.CI,
				LLCMPKICI: llcInt.CI,
			},
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
