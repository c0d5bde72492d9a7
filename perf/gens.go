package main

import (
	"time"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/trace"
)

// specGenerators builds one generator per core exactly as sim.NewFromSpecs
// does (same geometry, address regions and per-core seeds), so the
// benchmark can hand sim.New wrapped generators and still simulate the
// job sim.NewFromNames would. The traced pass checks that claim by
// fingerprint against an unwrapped sim.NewFromNames run.
func specGenerators(cfg sim.Config, names []string) []trace.Generator {
	geom := bench.Geometry{
		LLCSets:    cfg.LLCSets,
		L2Blocks:   cfg.L2Sets * cfg.L2Ways,
		BlockBytes: cfg.BlockBytes,
	}
	gens := make([]trace.Generator, len(names))
	for i, n := range names {
		gens[i] = bench.MustByName(n).Generator(geom, uint64(i+1)<<40, cfg.Seed+uint64(i)*7919)
	}
	return gens
}

// countingGen wraps a generator and counts the ops and instructions it
// emits: every instruction a core simulates passes through here, including
// the re-execution after its measurement window froze. In the traced pass
// it also times each NextBatch call (the in-situ cost of trace generation)
// and keeps the first capture ops of the stream for the layer replays.
type countingGen struct {
	g     trace.Generator
	ops   uint64
	instr uint64

	timed   bool
	genTime time.Duration

	capture  int
	captured []trace.Op
}

func (c *countingGen) Next(op *trace.Op) {
	c.g.Next(op)
	c.ops++
	c.instr += op.Instructions()
	if len(c.captured) < c.capture {
		c.captured = append(c.captured, *op)
	}
}

func (c *countingGen) Reset() { c.g.Reset() }

func (c *countingGen) NextBatch(ops []trace.Op) {
	if c.timed {
		t0 := time.Now()
		trace.FillBatch(c.g, ops)
		c.genTime += time.Since(t0)
	} else {
		trace.FillBatch(c.g, ops)
	}
	var gaps uint64
	for i := range ops {
		gaps += uint64(ops[i].Gap)
	}
	c.ops += uint64(len(ops))
	c.instr += gaps + uint64(len(ops))
	if room := c.capture - len(c.captured); room > 0 {
		if room > len(ops) {
			room = len(ops)
		}
		c.captured = append(c.captured, ops[:room]...)
	}
}

// replayGen re-emits a captured op stream, op for op, starting over at the
// end so a replay can run any number of ops. drawn counts the ops handed
// out.
type replayGen struct {
	ops   []trace.Op
	pos   int
	drawn uint64
}

func (r *replayGen) Next(op *trace.Op) {
	*op = r.ops[r.pos]
	r.advance(1)
}

func (r *replayGen) Reset() { r.pos = 0 }

func (r *replayGen) NextBatch(ops []trace.Op) {
	for filled := 0; filled < len(ops); {
		n := copy(ops[filled:], r.ops[r.pos:])
		filled += n
		r.advance(n)
	}
}

func (r *replayGen) advance(n int) {
	r.drawn += uint64(n)
	r.pos += n
	if r.pos == len(r.ops) {
		r.pos = 0
	}
}

// at returns the i-th op the generator has emitted or will emit.
func (r *replayGen) at(i uint64) trace.Op { return r.ops[i%uint64(len(r.ops))] }
