package trace

import "repro/internal/rng"

// WorkingSet models a recency-friendly application: accesses stay inside a
// bounded working set of wsBlocks, with a fraction hotProb of references
// directed at a small hot subset (hotFrac of the set). High reuse, small
// stack distances — the VL and L classes of Table 4.
type WorkingSet struct {
	p         Params
	wsBlocks  uint64
	hotSize   uint64
	hotProb   float64
	hotThresh uint64 // rng.Threshold53(hotProb), for the batch fast path
	gaps      gapper
	writes    writer
	src       *rng.Source
}

// NewWorkingSet builds a working-set generator. hotFrac and hotProb in
// [0,1]; wsBlocks must be positive.
func NewWorkingSet(p Params, wsBlocks uint64, hotFrac, hotProb float64) *WorkingSet {
	mustValidate(p)
	if wsBlocks == 0 {
		panic("trace: WorkingSet needs a positive working set")
	}
	hotSize := uint64(float64(wsBlocks) * hotFrac)
	if hotSize == 0 {
		hotSize = 1
	}
	return &WorkingSet{
		p:         p,
		wsBlocks:  wsBlocks,
		hotSize:   hotSize,
		hotProb:   hotProb,
		hotThresh: rng.Threshold53(hotProb),
		gaps:      newGapper(p.MemRatio, p.Seed),
		writes:    newWriter(p.WriteRatio, p.Seed),
		src:       rng.New(p.Seed ^ 0x3C6EF372FE94F82B),
	}
}

// Next implements Generator.
func (g *WorkingSet) Next(op *Op) {
	var off uint64
	if g.src.Float64() < g.hotProb {
		off = g.src.Uint64n(g.hotSize)
		op.PC = g.p.PCBase + 0x10 + off%4
	} else {
		off = g.src.Uint64n(g.wsBlocks)
		op.PC = g.p.PCBase + 0x20 + off%4
	}
	op.Addr = g.p.Base + off
	op.Gap = g.gaps.next()
	op.Write = g.writes.next()
}

// Reset implements Generator.
func (g *WorkingSet) Reset() {
	g.gaps.reset()
	g.writes.reset()
	g.src = rng.New(g.p.Seed ^ 0x3C6EF372FE94F82B)
}

// Cyclic models a thrashing application: a fixed-stride sweep over
// wsBlocks that visits every block once per cycle. When wsBlocks exceeds
// the cache share, recency policies evict every block just before its reuse
// — the worst case the Least bucket and BRRIP exist for.
//
// The stride defaults to 1 (sequential). Cyclic-reuse SPEC codes are not
// spatially sequential at block granularity, so benchmark models use a
// stride of 3, which also keeps a next-line prefetcher from hiding the
// pattern (a perfectly sequential synthetic sweep would be half-covered by
// it, unlike the real applications). The working set is rounded up to the
// next size coprime with the stride so the sweep is a full cycle.
type Cyclic struct {
	p        Params
	wsBlocks uint64
	stride   uint64
	pos      uint64
	gaps     gapper
	writes   writer
}

// NewCyclic builds a sequential cyclic-sweep generator.
func NewCyclic(p Params, wsBlocks uint64) *Cyclic {
	return NewCyclicStride(p, wsBlocks, 1)
}

// NewCyclicStride builds a cyclic sweep with the given stride. The working
// set grows by at most stride-1 blocks to stay coprime with the stride.
func NewCyclicStride(p Params, wsBlocks, stride uint64) *Cyclic {
	mustValidate(p)
	if wsBlocks == 0 || stride == 0 {
		panic("trace: Cyclic needs a positive working set and stride")
	}
	for gcd(wsBlocks, stride) != 1 {
		wsBlocks++
	}
	return &Cyclic{
		p:        p,
		wsBlocks: wsBlocks,
		stride:   stride,
		gaps:     newGapper(p.MemRatio, p.Seed),
		writes:   newWriter(p.WriteRatio, p.Seed),
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Next implements Generator.
func (g *Cyclic) Next(op *Op) {
	op.Addr = g.p.Base + g.pos
	g.pos = (g.pos + g.stride) % g.wsBlocks
	op.PC = g.p.PCBase + 0x30 + op.Addr%2
	op.Gap = g.gaps.next()
	op.Write = g.writes.next()
}

// Reset implements Generator.
func (g *Cyclic) Reset() {
	g.pos = 0
	g.gaps.reset()
	g.writes.reset()
}

// Stream models a pure streaming application (STRM, lbm): strictly
// sequential block addresses over a large region with no temporal reuse at
// all. The region wraps only to keep addresses bounded.
type Stream struct {
	p            Params
	regionBlocks uint64
	pos          uint64
	gaps         gapper
	writes       writer
}

// NewStream builds a streaming generator over regionBlocks.
func NewStream(p Params, regionBlocks uint64) *Stream {
	mustValidate(p)
	if regionBlocks == 0 {
		panic("trace: Stream needs a positive region")
	}
	return &Stream{
		p:            p,
		regionBlocks: regionBlocks,
		gaps:         newGapper(p.MemRatio, p.Seed),
		writes:       newWriter(p.WriteRatio, p.Seed),
	}
}

// Next implements Generator.
func (g *Stream) Next(op *Op) {
	op.Addr = g.p.Base + g.pos
	g.pos++
	if g.pos == g.regionBlocks {
		g.pos = 0
	}
	op.PC = g.p.PCBase + 0x40
	op.Gap = g.gaps.next()
	op.Write = g.writes.next()
}

// Reset implements Generator.
func (g *Stream) Reset() {
	g.pos = 0
	g.gaps.reset()
	g.writes.reset()
}

// MixedScan models the paper's mixed pattern ({a1..am}^k {s1..sn}^d):
// k references to a small hot set, then a scan burst of scanLen sequential
// blocks from a large scan region, repeated. With k slightly larger than d
// the hot set is worth caching and the scans are not — the LP-class
// behaviour (§3.2's Low-priority intuition).
type MixedScan struct {
	p          Params
	hotBlocks  uint64
	k          int
	scanLen    uint64
	scanRegion uint64

	phaseHot  int    // hot references remaining in this phase
	scanLeft  uint64 // scan references remaining in this phase
	scanPos   uint64
	hotCursor uint64
	gaps      gapper
	writes    writer
}

// NewMixedScan builds a mixed hot-set/scan generator.
func NewMixedScan(p Params, hotBlocks uint64, k int, scanLen, scanRegion uint64) *MixedScan {
	mustValidate(p)
	if hotBlocks == 0 || k <= 0 || scanLen == 0 || scanRegion == 0 {
		panic("trace: MixedScan needs positive hotBlocks, k, scanLen, scanRegion")
	}
	g := &MixedScan{
		p:          p,
		hotBlocks:  hotBlocks,
		k:          k,
		scanLen:    scanLen,
		scanRegion: scanRegion,
		gaps:       newGapper(p.MemRatio, p.Seed),
		writes:     newWriter(p.WriteRatio, p.Seed),
	}
	g.phaseHot = k
	return g
}

// Next implements Generator.
func (g *MixedScan) Next(op *Op) {
	if g.phaseHot > 0 {
		g.phaseHot--
		// Round-robin over the hot set keeps its footprint exact.
		op.Addr = g.p.Base + g.hotCursor
		g.hotCursor = (g.hotCursor + 1) % g.hotBlocks
		op.PC = g.p.PCBase + 0x50 + op.Addr%2
		if g.phaseHot == 0 {
			g.scanLeft = g.scanLen
		}
	} else {
		op.Addr = g.p.Base + g.hotBlocks + g.scanPos
		g.scanPos = (g.scanPos + 1) % g.scanRegion
		op.PC = g.p.PCBase + 0x60
		g.scanLeft--
		if g.scanLeft == 0 {
			g.phaseHot = g.k
		}
	}
	op.Gap = g.gaps.next()
	op.Write = g.writes.next()
}

// Reset implements Generator.
func (g *MixedScan) Reset() {
	g.phaseHot = g.k
	g.scanLeft = 0
	g.scanPos = 0
	g.hotCursor = 0
	g.gaps.reset()
	g.writes.reset()
}

func mustValidate(p Params) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
}
