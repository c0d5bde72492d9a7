// Package trace generates the synthetic memory reference streams that stand
// in for the paper's SPEC 2000/2006, PARSEC and STREAM traces. Those traces
// are not distributed with this repository; what the compared policies
// respond to is each application's reuse pattern and intensity at the LLC,
// which the generator families below reproduce.
//
// Generators emit an infinite stream of Ops: a count of non-memory
// instructions (Gap) followed by one memory reference at block granularity.
// Each generator family reproduces one of the archetypal access patterns the
// replacement-policy literature distinguishes:
//
//   - WorkingSet — stack-distance-skewed reuse inside a bounded working set
//     (recency-friendly; the VL/L applications).
//   - Cyclic     — round-robin sweep over a working set; thrashes every
//     recency-based policy once the set exceeds the cache (libq, apsi, ...).
//   - Stream     — strictly sequential, no temporal reuse (STRM, lbm).
//   - MixedScan  — a hot set interleaved with long scans, the paper's
//     ({a1..ak}^k {s1..sn}^d) pattern (mcf, sopl).
//
// All generators are deterministic given their Params.Seed and support Reset
// (the paper re-executes finished applications from the beginning; our
// streams are infinite, and Reset restores the initial state).
package trace

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Op is one unit of execution: Gap non-memory instructions followed by one
// memory access.
type Op struct {
	Gap   uint32 // non-memory instructions retired before the access
	Addr  uint64 // block address (byte address >> 6 in the modelled machine)
	Write bool
	PC    uint64 // address of the memory instruction, for SHiP signatures
}

// Instructions returns the op's total instruction count (gap + the access).
func (o Op) Instructions() uint64 { return uint64(o.Gap) + 1 }

// Generator produces an infinite, deterministic reference stream.
type Generator interface {
	// Next fills op with the next reference.
	Next(op *Op)
	// Reset restores the generator to its initial state.
	Reset()
}

// BatchGenerator is the bulk-delivery capability: NextBatch fills a whole
// slice of ops per call, emitting exactly the stream len(ops) successive
// Next calls would — op for op, bit for bit, from the same generator state.
// Every family in this package implements it with a specialized loop
// (per-op field loads and virtual calls hoisted, probability branches
// turned into integer-threshold compares via rng.Threshold53); callers
// holding only a Generator use FillBatch, which falls back to a scalar
// loop. Next and NextBatch calls may be interleaved freely.
type BatchGenerator interface {
	Generator
	// NextBatch fills every element of ops with the next len(ops)
	// references.
	NextBatch(ops []Op)
}

// FillBatch delivers len(ops) references from g: through the specialized
// NextBatch loop when g implements BatchGenerator, otherwise through the
// generic scalar fallback. Both paths produce the identical op sequence,
// which is what the batch-vs-scalar differential tests pin.
func FillBatch(g Generator, ops []Op) {
	if bg, ok := g.(BatchGenerator); ok {
		bg.NextBatch(ops)
		return
	}
	for i := range ops {
		g.Next(&ops[i])
	}
}

// Params carries the knobs shared by every generator family.
type Params struct {
	// Base offsets all generated block addresses; the simulator gives each
	// application a disjoint region.
	Base uint64
	// MemRatio is the fraction of instructions that are memory accesses;
	// the mean Gap is (1-MemRatio)/MemRatio.
	MemRatio float64
	// WriteRatio is the fraction of accesses that are stores.
	WriteRatio float64
	// PCBase seeds the per-family program-counter pool.
	PCBase uint64
	// Seed drives all randomness in the stream.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.MemRatio <= 0 || p.MemRatio > 1 {
		return fmt.Errorf("trace: MemRatio must be in (0,1], got %v", p.MemRatio)
	}
	if p.WriteRatio < 0 || p.WriteRatio > 1 {
		return fmt.Errorf("trace: WriteRatio must be in [0,1], got %v", p.WriteRatio)
	}
	return nil
}

// gapper produces integer gaps with the exact long-run mean (1-r)/r using a
// fractional accumulator plus bounded deterministic jitter, so instruction
// streams are not metronomic but still reproducible.
type gapper struct {
	mean float64
	acc  float64
	src  *rng.Source
	seed uint64
}

func newGapper(memRatio float64, seed uint64) gapper {
	return gapper{
		mean: (1 - memRatio) / memRatio,
		src:  rng.New(seed ^ 0x6A09E667F3BCC908),
		seed: seed,
	}
}

func (g *gapper) reset() {
	g.acc = 0
	g.src = rng.New(g.seed ^ 0x6A09E667F3BCC908)
}

func (g *gapper) next() uint32 {
	// Jitter in [0.5, 1.5) of the mean keeps bursts realistic.
	target := g.mean * (0.5 + g.src.Float64())
	g.acc += target
	gap := math.Floor(g.acc)
	g.acc -= gap
	if gap < 0 {
		gap = 0
	}
	if gap > math.MaxUint32 {
		gap = math.MaxUint32
	}
	return uint32(gap)
}

// fill sets ops[i].Gap for every i, with float arithmetic identical to
// next() so the gap stream is bit-for-bit the same; the accumulator and
// source ride in locals across the batch.
func (g *gapper) fill(ops []Op) {
	src, mean, acc := g.src, g.mean, g.acc
	for i := range ops {
		target := mean * (0.5 + src.Float64())
		acc += target
		gap := math.Floor(acc)
		acc -= gap
		if gap < 0 {
			gap = 0
		}
		if gap > math.MaxUint32 {
			gap = math.MaxUint32
		}
		ops[i].Gap = uint32(gap)
	}
	g.acc = acc
}

// writer decides load/store deterministically with the configured ratio.
type writer struct {
	src    *rng.Source
	p      float64
	thresh uint64 // rng.Threshold53(p), for the batch fast path
	seed   uint64
}

func newWriter(ratio float64, seed uint64) writer {
	return writer{
		src:    rng.New(seed ^ 0xBB67AE8584CAA73B),
		p:      ratio,
		thresh: rng.Threshold53(ratio),
		seed:   seed,
	}
}

func (w *writer) reset() { w.src = rng.New(w.seed ^ 0xBB67AE8584CAA73B) }

func (w *writer) next() bool {
	if w.p == 0 {
		return false
	}
	return w.src.Float64() < w.p
}

// fill sets ops[i].Write for every i. The zero-ratio case draws nothing,
// exactly like next(); otherwise each op consumes one Uint64 draw and the
// threshold compare decides identically to `Float64() < p`.
func (w *writer) fill(ops []Op) {
	if w.p == 0 {
		for i := range ops {
			ops[i].Write = false
		}
		return
	}
	src, thresh := w.src, w.thresh
	for i := range ops {
		ops[i].Write = src.Uint64()>>11 < thresh
	}
}
