package cpu

import (
	"testing"

	"repro/internal/trace"
)

// scriptGen replays a fixed list of ops, then repeats.
type scriptGen struct {
	ops []trace.Op
	pos int
}

func (g *scriptGen) Next(op *trace.Op) {
	*op = g.ops[g.pos]
	g.pos = (g.pos + 1) % len(g.ops)
}
func (g *scriptGen) Reset() { g.pos = 0 }

// fixedMem returns a constant latency for every access and records calls.
type fixedMem struct {
	latency uint64
	calls   []uint64 // issue times
}

func (m *fixedMem) Access(core int, now uint64, addr uint64, write bool, pc uint64) uint64 {
	m.calls = append(m.calls, now)
	return now + m.latency
}

func cfg() Config { return Config{ID: 0, Width: 4, ROB: 128, MaxOutstanding: 8} }

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	for _, c := range []Config{
		{Width: 0, ROB: 128, MaxOutstanding: 8},
		{Width: 4, ROB: 0, MaxOutstanding: 8},
		{Width: 4, ROB: 128, MaxOutstanding: 0},
		{Width: 3, ROB: 128, MaxOutstanding: 8}, // not a power of two
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
}

func TestNonMemThroughputIsWidth(t *testing.T) {
	// Pure compute: gap 399 + 1 access per op, zero-latency memory.
	g := &scriptGen{ops: []trace.Op{{Gap: 399}}}
	c := New(cfg(), g, &fixedMem{latency: 0})
	for i := 0; i < 100; i++ {
		c.Step()
	}
	// 100 ops x 400 instructions at width 4 = 10000 cycles.
	if c.Retired() != 40000 {
		t.Fatalf("retired = %d, want 40000", c.Retired())
	}
	if c.Clock() != 10000 {
		t.Fatalf("clock = %d, want 10000 (width-4 retirement)", c.Clock())
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// 8 independent loads, each 100 cycles, no gaps: with MaxOutstanding=8
	// they overlap; the core does NOT serialize 8x100 cycles.
	g := &scriptGen{ops: []trace.Op{{Gap: 0}}}
	mem := &fixedMem{latency: 100}
	c := New(cfg(), g, mem)
	for i := 0; i < 8; i++ {
		c.Step()
	}
	if c.Clock() > 10 {
		t.Fatalf("clock = %d after 8 overlapping loads; MLP broken", c.Clock())
	}
	c.Drain()
	if c.Clock() < 100 || c.Clock() > 110 {
		t.Fatalf("drained clock = %d, want ~100-110 (overlapped)", c.Clock())
	}
}

func TestMSHRLimitStalls(t *testing.T) {
	// The 9th outstanding load must wait for the 1st to complete.
	g := &scriptGen{ops: []trace.Op{{Gap: 0}}}
	mem := &fixedMem{latency: 100}
	c := New(cfg(), g, mem)
	for i := 0; i < 9; i++ {
		c.Step()
	}
	// Issue time of the 9th access >= completion of the 1st (~100).
	if mem.calls[8] < 100 {
		t.Fatalf("9th access issued at %d, want >= 100", mem.calls[8])
	}
}

func TestROBWindowStalls(t *testing.T) {
	// One long-latency load followed by >ROB instructions of compute: the
	// core must stall when the window fills.
	ops := []trace.Op{
		{Gap: 0, Addr: 1},   // load, 1000 cycles
		{Gap: 126, Addr: 2}, // fills the window relative to the load
		{Gap: 126, Addr: 3},
	}
	g := &scriptGen{ops: ops}
	mem := &seqMem{lat: []uint64{1000, 0, 0, 0, 0, 0}}
	c := New(cfg(), g, mem)
	c.Step() // load issued at ~0
	c.Step() // window: 127 instructions past the load — fits (ROB 128)
	c.Step() // would exceed the window: stall until the load returns
	if c.Clock() < 1000 {
		t.Fatalf("clock = %d, want >= 1000 (stalled to load completion)", c.Clock())
	}
}

// seqMem returns scripted latencies in sequence.
type seqMem struct {
	lat []uint64
	i   int
}

func (m *seqMem) Access(core int, now uint64, addr uint64, write bool, pc uint64) uint64 {
	l := m.lat[m.i%len(m.lat)]
	m.i++
	return now + l
}

func TestStoresDoNotBlock(t *testing.T) {
	// A stream of stores with huge latency: the core never stalls (write
	// buffer semantics).
	g := &scriptGen{ops: []trace.Op{{Gap: 0, Write: true}}}
	c := New(cfg(), g, &fixedMem{latency: 100000})
	for i := 0; i < 100; i++ {
		c.Step()
	}
	// 100 instructions at width 4 = 25 cycles: no stall.
	if c.Clock() != 25 {
		t.Fatalf("clock = %d, want 25: stores stalled the core", c.Clock())
	}
}

func TestSerializedMissesWhenMLPOne(t *testing.T) {
	conf := cfg()
	conf.MaxOutstanding = 1
	g := &scriptGen{ops: []trace.Op{{Gap: 0}}}
	c := New(conf, g, &fixedMem{latency: 100})
	for i := 0; i < 10; i++ {
		c.Step()
	}
	c.Drain()
	// 10 fully serialized 100-cycle loads: ~1000 cycles.
	if c.Clock() < 900 {
		t.Fatalf("clock = %d, want ~1000 (serialized)", c.Clock())
	}
}

func TestResetStatsKeepsClock(t *testing.T) {
	g := &scriptGen{ops: []trace.Op{{Gap: 39}}}
	c := New(cfg(), g, &fixedMem{latency: 0})
	for i := 0; i < 10; i++ {
		c.Step()
	}
	snap := c.Clock()
	c.ResetStats()
	if c.Retired() != 0 {
		t.Fatal("ResetStats left the retired count")
	}
	if c.Clock() != snap {
		t.Fatal("ResetStats must not move the clock")
	}
	for i := 0; i < 10; i++ {
		c.Step()
	}
	if ipc := float64(c.Retired()) / float64(c.Clock()-snap); ipc < 3.5 || ipc > 4.0 {
		t.Fatalf("post-warmup IPC = %v, want ~4", ipc)
	}
}

func TestIPCDegradesWithMemoryLatency(t *testing.T) {
	run := func(latency uint64) float64 {
		g := &scriptGen{ops: []trace.Op{{Gap: 9}}}
		conf := cfg()
		conf.MaxOutstanding = 2
		c := New(conf, g, &fixedMem{latency: latency})
		for i := 0; i < 2000; i++ {
			c.Step()
		}
		c.Drain()
		return float64(c.Retired()) / float64(c.Clock())
	}
	fast, slow := run(10), run(500)
	if fast <= slow {
		t.Fatalf("IPC fast=%.3f <= slow=%.3f; latency has no effect", fast, slow)
	}
	if slow > 1.0 {
		t.Fatalf("slow-memory IPC %.3f too high for 500-cycle serialized misses", slow)
	}
}

// scalarOnly hides a generator's BatchGenerator capability, so the core
// refills its ring through the scalar-fallback loop of Next calls.
type scalarOnly struct{ trace.Generator }

// TestBatchedRefillMatchesScalar pins the ring contract at the Core level:
// refilling through the generator's NextBatch loop and through the scalar
// fallback of the same generator give the same clock trajectory and the
// same access-issue times, because NextBatch emits exactly the Next stream.
func TestBatchedRefillMatchesScalar(t *testing.T) {
	run := func(scalar bool) ([]uint64, []uint64) {
		var g trace.Generator = trace.NewWorkingSet(trace.Params{
			Base: 1 << 30, MemRatio: 0.3, WriteRatio: 0.3, PCBase: 0x400000, Seed: 11,
		}, 4096, 0.1, 0.7)
		if scalar {
			g = scalarOnly{g}
		} else if _, ok := g.(trace.BatchGenerator); !ok {
			t.Fatal("working-set generator lost its NextBatch path; the test compares nothing")
		}
		mem := &fixedMem{latency: 40}
		c := New(cfg(), g, mem)
		clocks := make([]uint64, 500)
		for i := range clocks {
			clocks[i] = c.Step()
		}
		return clocks, mem.calls
	}
	refClocks, refCalls := run(true)
	clocks, calls := run(false)
	for i := range refClocks {
		if clocks[i] != refClocks[i] {
			t.Fatalf("clock diverges from the scalar refill at step %d (%d vs %d)", i, clocks[i], refClocks[i])
		}
	}
	if len(calls) != len(refCalls) {
		t.Fatalf("%d accesses issued, scalar refill issued %d", len(calls), len(refCalls))
	}
	for i := range refCalls {
		if calls[i] != refCalls[i] {
			t.Fatalf("access %d issued at %d, scalar refill issued it at %d", i, calls[i], refCalls[i])
		}
	}
}

func TestNewPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil generator/mem did not panic")
		}
	}()
	New(cfg(), nil, nil)
}

// streamMem records the (addr, write, pc) sequence seen on either the timed
// or the functional memory interface, so the two execution modes' op streams
// can be compared op for op.
type streamMem struct {
	addrs  []uint64
	writes []bool
	pcs    []uint64
}

func (m *streamMem) record(addr uint64, write bool, pc uint64) {
	m.addrs = append(m.addrs, addr)
	m.writes = append(m.writes, write)
	m.pcs = append(m.pcs, pc)
}

func (m *streamMem) Access(core int, now uint64, addr uint64, write bool, pc uint64) uint64 {
	m.record(addr, write, pc)
	return now + 1
}

func (m *streamMem) FunctionalAccess(addr uint64, write bool, pc uint64) {
	m.record(addr, write, pc)
}

// TestRunFunctionalSameOpStream pins functional warming's core guarantee:
// RunFunctional consumes the exact op stream detailed Step would — same
// generator draws, same refill cadence — and a mid-stream handoff from
// functional to detailed execution continues that stream without skipping
// or replaying an op.
func TestRunFunctionalSameOpStream(t *testing.T) {
	script := []trace.Op{
		{Addr: 0x100, Gap: 3, PC: 10},
		{Addr: 0x240, Gap: 0, Write: true, PC: 11},
		{Addr: 0x380, Gap: 7, PC: 12},
		{Addr: 0x100, Gap: 1, PC: 13},
		{Addr: 0x4c0, Gap: 2, Write: true, PC: 14},
	}
	const target = 2_000

	// Reference: fully detailed execution.
	dm := &streamMem{}
	dc := New(cfg(), &scriptGen{ops: script}, dm)
	for dc.Retired() < target {
		dc.Step()
	}
	dc.Drain()

	// Functional to half the target, then detailed for the rest.
	fm := &streamMem{}
	fc := New(cfg(), &scriptGen{ops: script}, fm)
	fc.RunFunctional(target/2, fm)
	if fc.Retired() < target/2 {
		t.Fatalf("functional phase retired %d, want >= %d", fc.Retired(), target/2)
	}
	for fc.Retired() < target {
		fc.Step()
	}
	fc.Drain()

	// Every op retires at least one instruction, so equal counts on one op
	// stream mean the same number of ops.
	if fc.Retired() != dc.Retired() {
		t.Fatalf("retired diverged: functional+detailed %d vs detailed %d", fc.Retired(), dc.Retired())
	}
	n := len(fm.addrs)
	if len(dm.addrs) < n {
		n = len(dm.addrs)
	}
	if n == 0 {
		t.Fatal("no accesses recorded")
	}
	for i := 0; i < n; i++ {
		if fm.addrs[i] != dm.addrs[i] || fm.writes[i] != dm.writes[i] || fm.pcs[i] != dm.pcs[i] {
			t.Fatalf("op stream diverged at access %d: functional (%#x,%v,%d) vs detailed (%#x,%v,%d)",
				i, fm.addrs[i], fm.writes[i], fm.pcs[i], dm.addrs[i], dm.writes[i], dm.pcs[i])
		}
	}
}

// probeMem is a memory system with the Prober capability: a reference to
// an address in private is private, and its probe performs it with latency
// probeLat; every other reference goes to Access and completes after
// accessLat cycles. calls counts Access calls, the in-order steps, and
// probes the performed probes, the private steps.
type probeMem struct {
	private             map[uint64]bool
	accessLat, probeLat uint64
	calls, probes       int
}

func (m *probeMem) Access(core int, now uint64, addr uint64, write bool, pc uint64) uint64 {
	m.calls++
	return now + m.accessLat
}

func (m *probeMem) Private(addr uint64, write bool, pc uint64) (uint64, bool) {
	if !m.private[addr] {
		return 0, false
	}
	m.probes++
	return m.probeLat, true
}

// storeCore builds a core with the given id that replays stores to addrs,
// each four instructions (gap 3), so that at width 4 a step advances the
// clock by exactly one cycle and nothing ever stalls: after k steps the
// clock is k and retired is 4k.
func storeCore(id int, mem MemSystem, addrs ...uint64) *Core {
	ops := make([]trace.Op, len(addrs))
	for i, a := range addrs {
		ops[i] = trace.Op{Addr: a, Gap: 3, Write: true}
	}
	conf := cfg()
	conf.ID = id
	return New(conf, &scriptGen{ops: ops}, mem)
}

// TestRunAheadStopRules pins RunAhead's stop rules for a batch that has
// passed its limit after its first step: it runs on through private steps
// and stops before the first non-private one, before a step that would
// reach retireAt, and at the horizon, with the core-index tie-break at
// equal clocks. maxSteps counts run-ahead steps too. Each private step's
// reference is the one its probe performed: Access sees the in-order steps
// only, and when maxSteps, retireAt or the horizon stops the batch no probe
// has run for a step that does not follow.
func TestRunAheadStopRules(t *testing.T) {
	const noLimit = ^uint64(0)
	cases := []struct {
		name           string
		id             int
		addrs          []uint64 // the script; address 1 probes private
		limit          uint64   // with yieldAtTie; 0 is passed by the first step
		maxSteps       int
		retireAt       uint64
		horizon        uint64
		yieldAtHorizon bool
		wantSteps      int
		wantAhead      int // of wantSteps, the private steps run ahead
	}{
		// The first step runs in order whatever it touches; the next two
		// are private, the fourth is not.
		{name: "private steps, then a shared one", addrs: []uint64{9, 1, 1, 9, 1}, horizon: noLimit, wantSteps: 3, wantAhead: 2},
		{name: "no private step", addrs: []uint64{1, 9}, horizon: noLimit, wantSteps: 1},
		// Retired is 4 after the first step and 8 after the second; the
		// third would reach 12 >= 10.
		{name: "stops before crossing retireAt", addrs: []uint64{1}, retireAt: 10, horizon: noLimit, wantSteps: 2, wantAhead: 1},
		{name: "crossing at retireAt exactly", addrs: []uint64{1}, retireAt: 12, horizon: noLimit, wantSteps: 2, wantAhead: 1},
		// Core 1 below the horizon (5, core 2): its step at clock 5 has
		// the smaller key and runs, the one at clock 6 does not.
		{name: "horizon of a higher core index", id: 1, addrs: []uint64{1}, horizon: 5, yieldAtHorizon: false, wantSteps: 6, wantAhead: 5},
		// Horizon (5, core 0) or (5, core 1) itself: the step at clock 5
		// is not below it.
		{name: "horizon of a lower core index", id: 1, addrs: []uint64{1}, horizon: 5, yieldAtHorizon: true, wantSteps: 5, wantAhead: 4},
		// In-order steps (clock still below the limit 3) ignore the horizon.
		{name: "in-order steps ignore the horizon", addrs: []uint64{1}, limit: 3, horizon: 0, yieldAtHorizon: true, wantSteps: 3},
		{name: "maxSteps bounds run-ahead", addrs: []uint64{1}, maxSteps: 4, horizon: noLimit, wantSteps: 4, wantAhead: 3},
		{name: "maxSteps 1 runs one step", addrs: []uint64{1}, maxSteps: 1, horizon: noLimit, wantSteps: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := &probeMem{private: map[uint64]bool{1: true}, accessLat: 1, probeLat: 1}
			c := storeCore(tc.id, mem, tc.addrs...)
			clock := c.RunAhead(tc.limit, true, tc.maxSteps, tc.retireAt, tc.horizon, tc.yieldAtHorizon, mem)
			steps := int(c.Retired() / 4) // each op retires 4
			if steps != tc.wantSteps || mem.probes != tc.wantAhead {
				t.Fatalf("ran %d steps, %d of them ahead; want %d and %d", steps, mem.probes, tc.wantSteps, tc.wantAhead)
			}
			if mem.calls != steps-mem.probes {
				t.Fatalf("%d Access calls for %d steps and %d performed probes: a probed step went to Access, or a probe's step did not run",
					mem.calls, steps, mem.probes)
			}
			if clock != uint64(tc.wantSteps) {
				t.Fatalf("clock %d after %d steps, want %d", clock, steps, tc.wantSteps)
			}
		})
	}
}

// TestRunAheadLoadTakesProbeLatency: a private load completes at its access
// clock plus the latency its probe returned, not at a time from Access.
func TestRunAheadLoadTakesProbeLatency(t *testing.T) {
	mem := &probeMem{private: map[uint64]bool{1: true}, accessLat: 7, probeLat: 50}
	// Two loads of four instructions each at width 4: the in-order load to
	// 9 issues at clock 0 and completes at 7; the private load to 1 issues
	// at clock 1; the next op, to 9 again, is not private.
	c := New(cfg(), &scriptGen{ops: []trace.Op{{Addr: 9, Gap: 3}, {Addr: 1, Gap: 3}}}, mem)
	if clock := c.RunAhead(0, true, 0, 0, ^uint64(0), false, mem); clock != 2 {
		t.Fatalf("batch ended at clock %d, want 2 after one in-order and one private step", clock)
	}
	if mem.calls != 1 || mem.probes != 1 {
		t.Fatalf("%d Access calls and %d performed probes, want 1 and 1", mem.calls, mem.probes)
	}
	if got, want := c.Drain(), uint64(1+50); got != want {
		t.Fatalf("loads drained at clock %d, want %d: the private load's access clock 1 plus its probe latency", got, want)
	}
}

// TestRunAheadInOrderWithoutProbe: with no prober, RunAhead and RunBatch
// run exactly the in-order steps of the original RunBatch loop, whatever
// the horizon says.
func TestRunAheadInOrderWithoutProbe(t *testing.T) {
	// inOrder is RunBatch's loop before run-ahead existed.
	inOrder := func(c *Core, limit uint64, yieldAtTie bool, maxSteps int, retireAt uint64) uint64 {
		steps := 0
		for {
			clock := c.Step()
			if retireAt > 0 && c.retired >= retireAt {
				return clock
			}
			if clock > limit || (yieldAtTie && clock >= limit) {
				return clock
			}
			steps++
			if maxSteps > 0 && steps >= maxSteps {
				return clock
			}
		}
	}
	newCore := func() *Core {
		g := trace.NewWorkingSet(trace.Params{
			Base: 1 << 30, MemRatio: 0.3, WriteRatio: 0.3, PCBase: 0x400000, Seed: 5,
		}, 4096, 0.1, 0.7)
		return New(cfg(), g, &fixedMem{latency: 40})
	}
	ref, batch, ahead := newCore(), newCore(), newCore()
	for i := 0; i < 300; i++ {
		limit := ref.Clock() + uint64(i%7)*9
		yieldAtTie := i%2 == 0
		maxSteps := i % 5
		retireAt := uint64(0)
		if i%3 == 0 {
			retireAt = ref.Retired() + uint64(i%11)*13
		}
		want := inOrder(ref, limit, yieldAtTie, maxSteps, retireAt)
		if got := batch.RunBatch(limit, yieldAtTie, maxSteps, retireAt); got != want {
			t.Fatalf("call %d: RunBatch returned clock %d, the in-order loop %d", i, got, want)
		}
		if got := ahead.RunAhead(limit, yieldAtTie, maxSteps, retireAt, ^uint64(0), false, nil); got != want {
			t.Fatalf("call %d: RunAhead with no prober returned clock %d, the in-order loop %d", i, got, want)
		}
		if batch.Retired() != ref.Retired() || ahead.Retired() != ref.Retired() {
			t.Fatalf("call %d: retired %d (RunBatch) and %d (RunAhead), in-order loop %d",
				i, batch.Retired(), ahead.Retired(), ref.Retired())
		}
	}
}
