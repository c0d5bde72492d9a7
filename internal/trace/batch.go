package trace

import "math"

// This file holds the specialized NextBatch loops — the batched,
// devirtualized delivery path of every generator family. Each loop emits
// exactly the op sequence the family's scalar Next would (pinned by the
// batch-vs-scalar differential tests in batch_test.go):
//
//   - Generator state (cursors, accumulators, rng sources) rides in locals
//     across the batch and is written back once, so per-op field loads and
//     the per-op interface dispatch of Generator.Next disappear.
//   - Per-op `Float64() < p` branches become integer compares of
//     `Uint64()>>11` against a precomputed rng.Threshold53(p): the same
//     single draw, the same accept/reject outcome (see Threshold53 for the
//     exactness argument), without the int→float convert and float compare.
//   - Gap and write decisions come from gapper.fill / writer.fill, whose
//     draws live on their own rng sources: reordering them relative to the
//     address draws cannot change any stream, because each source's own
//     draw sequence is what determines its outputs.

// NextBatch implements BatchGenerator.
func (g *WorkingSet) NextBatch(ops []Op) {
	src := g.src
	base, pcBase := g.p.Base, g.p.PCBase
	hotSize, wsBlocks, hotThresh := g.hotSize, g.wsBlocks, g.hotThresh
	for i := range ops {
		var off uint64
		if src.Uint64()>>11 < hotThresh {
			off = src.Uint64n(hotSize)
			ops[i].PC = pcBase + 0x10 + off%4
		} else {
			off = src.Uint64n(wsBlocks)
			ops[i].PC = pcBase + 0x20 + off%4
		}
		ops[i].Addr = base + off
	}
	g.gaps.fill(ops)
	g.writes.fill(ops)
}

// NextBatch implements BatchGenerator.
func (g *Cyclic) NextBatch(ops []Op) {
	base, pcBase := g.p.Base, g.p.PCBase
	pos, stride, ws := g.pos, g.stride, g.wsBlocks
	if stride < ws {
		// pos < ws always, so pos+stride < 2·ws and the scalar path's
		// modulo reduces to one conditional subtract — same value, no
		// hardware division in the loop.
		for i := range ops {
			addr := base + pos
			pos += stride
			if pos >= ws {
				pos -= ws
			}
			ops[i].Addr = addr
			ops[i].PC = pcBase + 0x30 + addr%2
		}
	} else {
		for i := range ops {
			addr := base + pos
			pos = (pos + stride) % ws
			ops[i].Addr = addr
			ops[i].PC = pcBase + 0x30 + addr%2
		}
	}
	g.pos = pos
	g.gaps.fill(ops)
	g.writes.fill(ops)
}

// NextBatch implements BatchGenerator.
func (g *Stream) NextBatch(ops []Op) {
	base, pos, region := g.p.Base, g.pos, g.regionBlocks
	pc := g.p.PCBase + 0x40
	for i := range ops {
		ops[i].Addr = base + pos
		ops[i].PC = pc
		pos++
		if pos == region {
			pos = 0
		}
	}
	g.pos = pos
	g.gaps.fill(ops)
	g.writes.fill(ops)
}

// NextBatch implements BatchGenerator.
func (g *MixedScan) NextBatch(ops []Op) {
	base, pcBase := g.p.Base, g.p.PCBase
	hotBlocks, k, scanLen, scanRegion := g.hotBlocks, g.k, g.scanLen, g.scanRegion
	phaseHot, scanLeft, scanPos, hotCursor := g.phaseHot, g.scanLeft, g.scanPos, g.hotCursor
	for i := range ops {
		if phaseHot > 0 {
			phaseHot--
			addr := base + hotCursor
			// Cursors stay in [0, bound), so the scalar path's +1 modulo
			// is a wrap-to-zero compare — no division in the loop.
			if hotCursor++; hotCursor == hotBlocks {
				hotCursor = 0
			}
			ops[i].Addr = addr
			ops[i].PC = pcBase + 0x50 + addr%2
			if phaseHot == 0 {
				scanLeft = scanLen
			}
		} else {
			ops[i].Addr = base + hotBlocks + scanPos
			if scanPos++; scanPos == scanRegion {
				scanPos = 0
			}
			ops[i].PC = pcBase + 0x60
			scanLeft--
			if scanLeft == 0 {
				phaseHot = k
			}
		}
	}
	g.phaseHot, g.scanLeft, g.scanPos, g.hotCursor = phaseHot, scanLeft, scanPos, hotCursor
	g.gaps.fill(ops)
	g.writes.fill(ops)
}

// NextBatch implements BatchGenerator: the inner generator fills the batch
// (through its own specialized loop when it has one), then the modulated
// gap process overwrites the gaps exactly as the scalar Next does — two
// draws per op from the wrapper's private source, phase transitions decided
// by threshold compares, the fractional accumulator's float arithmetic
// unchanged.
func (g *MarkovBurst) NextBatch(ops []Op) {
	FillBatch(g.inner, ops)

	src := g.src
	burst, acc := g.burst, g.acc
	burstExit, calmExit := g.burstExitThresh, g.calmExitThresh
	calmGapMean, burstGapMean := g.calmGapMean, g.burstGapMean
	for i := range ops {
		if burst {
			if src.Uint64()>>11 < burstExit {
				burst = false
			}
		} else if src.Uint64()>>11 < calmExit {
			burst = true
		}
		gapMean := calmGapMean
		if burst {
			gapMean = burstGapMean
		}
		target := gapMean * (0.5 + src.Float64())
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
	g.burst, g.acc = burst, acc
}
