// Package cpu models the paper's processor cores as trace-driven load
// generators with bounded memory-level parallelism. The paper uses 4-way
// out-of-order cores with a 128-entry ROB (Table 3, via the BADCO
// simulator); what the evaluated mechanisms actually depend on is how many
// misses a core can overlap and when it stalls, which this model captures:
//
//   - Non-memory instructions retire at the pipeline width per cycle.
//   - Loads issue without blocking and complete whenever the memory system
//     says; the core keeps running until either the ROB window (the distance
//     to the oldest incomplete load) or the outstanding-miss limit (MSHRs)
//     is exhausted, at which point it stalls until the oldest load returns.
//   - Stores retire through the write buffer and never stall the core
//     directly (back-pressure appears as memory-system latency instead).
//
// The model stands in for BADCO because the policies under study only see
// the LLC reference stream and its timing; miss overlap and stall behaviour
// are what shape that stream, while pipeline detail does not reach it.
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/trace"
)

// MemSystem is the interface the core drives: one call per memory
// reference, returning the reference's completion time. Implementations
// (internal/sim) route the access through L1/L2/LLC/DRAM.
type MemSystem interface {
	Access(core int, now uint64, addr uint64, write bool, pc uint64) (done uint64)
}

// Prober is the optional capability of a MemSystem that lets RunAhead run
// a core past the global event order. Private performs the reference
// (addr, write, pc) if it touches only the core's own state, and then
// returns its latency, the cycles from issue to completion, and true: in
// internal/sim, an L1 hit, which fires no prefetch, evicts nothing and never
// reaches the L2 or the shared substrate. Otherwise it changes nothing and
// returns false. A true answer has already performed the reference, so the
// caller must run that op's step next, without calling Access for it. The
// core does not hold its prober; the event loop passes one per batch.
type Prober interface {
	Private(addr uint64, write bool, pc uint64) (latency uint64, ok bool)
}

// FunctionalMem is the timing-free sibling of MemSystem, driven by
// RunFunctional during sampled-fidelity warming gaps: one call per memory
// reference, updating cache and policy state at nominal latencies with no
// completion time to report (the core's clock is frozen during functional
// execution).
type FunctionalMem interface {
	FunctionalAccess(addr uint64, write bool, pc uint64)
}

// DefaultTraceBatch is the length of every core's op ring: large enough to
// amortise the per-refill dispatch to near nothing, small enough (a 2KB
// ring) to stay resident in L1 next to the core's other hot state. It is a
// constant, not a knob, because every length yields the same op stream:
// generators are state machines independent of simulation time, so
// pre-drawing cannot change any emitted op.
const DefaultTraceBatch = 64

// Config sizes a core.
type Config struct {
	ID             int
	Width          int // retire width, a power of two (4)
	ROB            int // reorder-buffer window in instructions (128)
	MaxOutstanding int // simultaneous incomplete loads (L1 MSHRs; 8)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROB <= 0 || c.MaxOutstanding <= 0 {
		return fmt.Errorf("cpu: width (%d), ROB (%d) and MaxOutstanding (%d) must be positive",
			c.Width, c.ROB, c.MaxOutstanding)
	}
	if c.Width&(c.Width-1) != 0 {
		return fmt.Errorf("cpu: width %d is not a power of two", c.Width)
	}
	return nil
}

// inflight tracks an incomplete load.
type inflight struct {
	instr uint64 // index of the load instruction
	done  uint64 // completion time
}

// Core is one simulated core. Not safe for concurrent use.
type Core struct {
	gen trace.Generator
	mem MemSystem

	// The power-of-two Width as a shift and a mask, so the clock advance
	// divides without hardware division (the hottest arithmetic in the
	// whole simulator).
	widthShift uint
	widthMask  uint64

	clock   uint64
	retired uint64
	slack   uint64 // sub-cycle accumulation of non-mem instructions

	// Ring buffer of incomplete loads, oldest first. Fixed capacity
	// (MaxOutstanding rounded up to a power of two, so the ring index wraps
	// with a mask instead of hardware division) keeps the hot path
	// allocation-free; loadCount is still bounded by maxOut, never by the
	// ring length.
	loads     []inflight
	loadMask  int
	loadHead  int
	loadCount int

	// The other Config fields read every Step, in the types the step uses.
	id     int
	rob    uint64
	maxOut int

	// ops is the trace-delivery ring: DefaultTraceBatch pre-drawn ops,
	// refilled wholesale (outside the step loop) through the generator's
	// NextBatch fast path when it has one. opNext indexes the next op to
	// consume; the ring is exhausted when opNext reaches len(ops). Refills
	// are per-core private work against a buffer allocated once in New, so
	// the measured loop stays allocation-free.
	ops    []trace.Op
	opNext int
	// genBatch is gen's BatchGenerator capability, captured once at
	// construction so refills pay no per-batch type assertion; nil means
	// the scalar fallback loop.
	genBatch trace.BatchGenerator
}

// New builds a core bound to a trace generator and a memory system.
func New(cfg Config, gen trace.Generator, mem MemSystem) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if gen == nil || mem == nil {
		panic("cpu: nil generator or memory system")
	}
	ringLen := 1 << bits.Len(uint(cfg.MaxOutstanding-1)) // next power of two
	c := &Core{
		gen:        gen,
		mem:        mem,
		widthShift: uint(bits.TrailingZeros(uint(cfg.Width))),
		widthMask:  uint64(cfg.Width - 1),
		loads:      make([]inflight, ringLen),
		loadMask:   ringLen - 1,
		id:         cfg.ID,
		rob:        uint64(cfg.ROB),
		maxOut:     cfg.MaxOutstanding,
		ops:        make([]trace.Op, DefaultTraceBatch),
		opNext:     DefaultTraceBatch, // empty: first Step refills
	}
	c.genBatch, _ = gen.(trace.BatchGenerator)
	return c
}

// oldest returns the ring's front entry; callers must check loadCount > 0.
func (c *Core) oldest() inflight { return c.loads[c.loadHead] }

func (c *Core) popLoad() inflight {
	e := c.loads[c.loadHead]
	c.loadHead = (c.loadHead + 1) & c.loadMask
	c.loadCount--
	return e
}

func (c *Core) pushLoad(e inflight) {
	c.loads[(c.loadHead+c.loadCount)&c.loadMask] = e
	c.loadCount++
}

// Clock returns the core's local cycle count.
func (c *Core) Clock() uint64 { return c.clock }

// Retired returns the number of retired instructions.
func (c *Core) Retired() uint64 { return c.retired }

// advance retires n non-memory instructions at the pipeline width.
func (c *Core) advance(n uint64) {
	c.retired += n
	c.slack += n
	c.clock += c.slack >> c.widthShift
	c.slack &= c.widthMask
}

// drainOldest stalls the core until its oldest load completes.
func (c *Core) drainOldest() {
	if c.loadCount == 0 {
		return
	}
	oldest := c.popLoad()
	if oldest.done > c.clock {
		c.clock = oldest.done
	}
}

// reap removes loads that have completed by the current clock.
func (c *Core) reap() {
	for c.loadCount > 0 && c.oldest().done <= c.clock {
		c.popLoad()
	}
}

// refill re-draws the whole op ring from the generator: one NextBatch call
// on the specialized batch path, or the scalar fallback loop for
// generators without the capability.
func (c *Core) refill() {
	if c.genBatch != nil {
		c.genBatch.NextBatch(c.ops)
	} else {
		for i := range c.ops {
			c.gen.Next(&c.ops[i])
		}
	}
	c.opNext = 0
}

// Step executes one trace op (its gap instructions plus its memory access)
// and returns the core's new local clock. The caller (internal/sim) keeps a
// min-heap of core clocks to interleave cores in global time order. Ops
// come off the pre-drawn ring; pre-drawing is invisible to the simulation
// because generators are pure state machines — the op consumed at step N is
// the same whether it was drawn at step N or batched ahead at step N-k.
func (c *Core) Step() uint64 { return c.step(false, 0) }

// step is Step, and also the step of an op whose reference a Prober has
// already performed (probed): that reference completes latency cycles after
// it issues and does not go to mem. Everything else, the gap, the stalls
// and the load's place in the window, is the same.
func (c *Core) step(probed bool, latency uint64) uint64 {
	if c.opNext == len(c.ops) {
		c.refill()
	}
	op := &c.ops[c.opNext]
	c.opNext++

	c.advance(uint64(op.Gap))
	c.reap()

	// Structural stalls: ROB window and MSHR occupancy.
	for c.loadCount > 0 && c.retired-c.oldest().instr >= c.rob {
		c.drainOldest()
	}
	for c.loadCount >= c.maxOut {
		c.drainOldest()
	}

	done := c.clock + latency
	if !probed {
		done = c.mem.Access(c.id, c.clock, op.Addr, op.Write, op.PC)
	}
	if !op.Write {
		c.pushLoad(inflight{instr: c.retired, done: done})
	}
	c.advance(1) // the memory instruction itself
	return c.clock
}

// RunBatch executes Steps until a stop condition fires and returns the
// core's clock. It is RunAhead with no prober, so every step it runs is in
// order: the caller proves the core is the globally earliest runnable core
// and lets it run, without per-step heap traffic, exactly as long as that
// proof holds. Stop conditions:
//
//   - the clock passes limit: clock > limit, or clock >= limit when
//     yieldAtTie (the runner-up core wins clock ties, so equality means
//     this core is no longer first);
//   - retireAt > 0 and the retired-instruction count reaches retireAt
//     (the caller records the crossing point before letting the core run
//     on);
//   - maxSteps > 0 and exactly maxSteps steps have executed.
//
// Stopping early is always safe: re-invoking with the same conditions
// continues the identical step sequence, which is what makes simulation
// results independent of how the caller sizes its batches.
func (c *Core) RunBatch(limit uint64, yieldAtTie bool, maxSteps int, retireAt uint64) uint64 {
	return c.RunAhead(limit, yieldAtTie, maxSteps, retireAt, 0, true, nil)
}

// RunAhead is the step loop of the event loop in internal/sim. It runs
// RunBatch's in-order steps, and once the clock passes limit it keeps
// going while the next step is inside its bound and private: p performs
// the next op's reference (see Prober).
//
//   - With retireAt > 0 (a core short of the target), the step must not
//     reach retireAt: retired + gap + 1 < retireAt. A crossing step runs
//     only in order.
//   - The step's key (clock before the step, core index) must be below the
//     horizon: clock < horizon, or clock == horizon when !yieldAtHorizon
//     (the horizon's core index is above this core's).
//
// maxSteps counts every step, so maxSteps 1 runs one in-order step, and a
// nil p runs in-order steps only. The probe comes after every other stop
// check, so a step whose reference p has performed always runs, with the
// completion time p's latency gives. Probing may refill the op ring, which
// is itself private: the op stream is the same whenever it is drawn.
func (c *Core) RunAhead(limit uint64, yieldAtTie bool, maxSteps int, retireAt uint64,
	horizon uint64, yieldAtHorizon bool, p Prober) uint64 {
	steps := 0
	probed, latency := false, uint64(0)
	for {
		clock := c.step(probed, latency)
		if retireAt > 0 && c.retired >= retireAt {
			return clock
		}
		steps++
		if maxSteps > 0 && steps >= maxSteps {
			return clock
		}
		probed = false
		if passed(clock, limit, yieldAtTie) {
			if latency, probed = c.nextPrivate(retireAt, horizon, yieldAtHorizon, p); !probed {
				return clock
			}
		}
	}
}

// passed reports whether clock has reached the bound (limit, yieldAtTie):
// clock > limit, or clock == limit when yieldAtTie.
func passed(clock, limit uint64, yieldAtTie bool) bool {
	return clock > limit || (yieldAtTie && clock >= limit)
}

// nextPrivate reports whether RunAhead may run the core's next step out of
// order, and if so has p perform its reference and returns the reference's
// latency: the step does not reach retireAt, its key is below the horizon,
// and p finds its reference private. The probe goes last, so a true answer
// is final.
func (c *Core) nextPrivate(retireAt, horizon uint64, yieldAtHorizon bool, p Prober) (uint64, bool) {
	if p == nil || passed(c.clock, horizon, yieldAtHorizon) {
		return 0, false
	}
	if c.opNext == len(c.ops) {
		c.refill()
	}
	op := &c.ops[c.opNext]
	if retireAt > 0 && c.retired+uint64(op.Gap)+1 >= retireAt {
		return 0, false
	}
	return p.Private(op.Addr, op.Write, op.PC)
}

// RunFunctional retires instructions in functional-warming mode until the
// retired count reaches retireAt: ops come off the same pre-drawn ring as
// Step — same generator, same refill cadence, so the op stream is
// bit-identical to what detailed execution would have consumed — but only
// the retired-instruction counter advances and each memory reference goes
// to mem with no timing. The clock, slack and in-flight load ring are left
// untouched: functional execution is invisible to the timing model except
// through the memory state mem mutates. In-flight loads carried across a
// functional span keep their pre-span instruction indices, so the ROB-
// window check conservatively drains them early in the next detailed span;
// the sampled-mode scheduler absorbs that transient in its detailed
// re-warm phase.
func (c *Core) RunFunctional(retireAt uint64, mem FunctionalMem) {
	for c.retired < retireAt {
		if c.opNext == len(c.ops) {
			c.refill()
		}
		op := &c.ops[c.opNext]
		c.opNext++
		c.retired += uint64(op.Gap) + 1
		mem.FunctionalAccess(op.Addr, op.Write, op.PC)
	}
}

// Drain stalls until all outstanding loads have completed and returns the
// resulting clock. The simulator never drains: it freezes a core's cycle
// count at its instruction target with loads still in flight. Tests use
// Drain to read when overlapped loads finish.
func (c *Core) Drain() uint64 {
	for c.loadCount > 0 {
		c.drainOldest()
	}
	return c.clock
}

// ResetStats zeroes the retired-instruction count while keeping
// microarchitectural state (in-flight loads, generator position). Used at
// the warm-up boundary. The clock keeps running; callers snapshot it.
// In-flight loads are rebased to instruction index 0 so the ROB-window
// arithmetic stays valid across the reset.
func (c *Core) ResetStats() {
	c.retired = 0
	for i := range c.loads {
		c.loads[i].instr = 0
	}
}
