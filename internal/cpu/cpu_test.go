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
	if ipc := c.IPC(0); ipc != 4 {
		t.Fatalf("IPC = %v, want 4", ipc)
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
	if c.StallCycles() == 0 {
		t.Fatal("MSHR-limited load did not stall")
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
	if c.StallCycles() == 0 {
		t.Fatal("ROB window never stalled behind a long-latency load")
	}
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
	if c.StallCycles() != 0 {
		t.Fatalf("stores stalled the core for %d cycles", c.StallCycles())
	}
	// 100 instructions at width 4 = 25 cycles.
	if c.Clock() != 25 {
		t.Fatalf("clock = %d, want 25", c.Clock())
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
	if c.Retired() != 0 || c.MemAccesses() != 0 {
		t.Fatal("ResetStats left counters")
	}
	if c.Clock() != snap {
		t.Fatal("ResetStats must not move the clock")
	}
	for i := 0; i < 10; i++ {
		c.Step()
	}
	if ipc := c.IPC(snap); ipc < 3.5 || ipc > 4.0 {
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

	if fc.Retired() != dc.Retired() {
		t.Fatalf("retired diverged: functional+detailed %d vs detailed %d", fc.Retired(), dc.Retired())
	}
	if fc.MemAccesses() != dc.MemAccesses() {
		t.Fatalf("mem accesses diverged: %d vs %d", fc.MemAccesses(), dc.MemAccesses())
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
