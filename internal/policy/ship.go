package policy

import (
	"repro/internal/cache"
	"repro/internal/rng"
)

// SHiP parameters (Wu et al., MICRO 2011, SHiP-PC flavour), sized as in the
// paper's Table 2 storage discussion.
const (
	// SignatureBits is the PC-signature width; the SHCT has 2^14 entries.
	SignatureBits = 14
	// SHCTMax is the saturating maximum of the 3-bit SHCT counters.
	SHCTMax = 7
)

// SHiP implements Signature-based Hit Prediction with PC signatures.
//
// A Signature History Counter Table (SHCT) per core records whether cache
// lines inserted by a given PC signature tend to be re-referenced. Training
// happens on a sampled subset of sets, where each line carries its fill
// signature and an outcome bit: a demand re-reference sets the bit and
// increments the SHCT entry; eviction without re-reference decrements it.
// Fills whose signature has a zero counter are predicted distant (RRPV
// MaxRRPV, or bypassed in the "ship-bp" variant); everything else is
// inserted like SRRIP (MaxRRPV-1).
//
// As the paper's §2 observes, at high core counts SHiP's hit/miss-driven
// training sees thrashing applications behave like everyone else, so it
// rarely predicts distant reuse — reproducing that emergent failure is the
// point of carrying the full training machinery here.
type SHiP struct {
	cache.Engine
	// shct is the per-core counter table flattened into one dense slice,
	// indexed core<<SignatureBits | signature: one allocation, one load on
	// the per-fill path, no per-core pointer chase.
	shct     []uint8
	trainIdx []int32     // per set: index into training state, -1 if unsampled
	train    []shipTrain // per (training set, way): fill bookkeeping
	ways     int         // geometry associativity (trainSlot stride)
	bypass   bool

	// Prediction counters for tests and the Figure 6 analysis.
	distantPredictions uint64
	totalPredictions   uint64
}

// shipTrain is one sampled line's training state. The four fields travel
// together through OnHit/OnFill/OnEvict, so a single 6-byte record beats
// four parallel slices on locality.
type shipTrain struct {
	sig    uint16 // fill signature
	core   uint16 // fill core
	valid  bool   // signature valid
	reused bool   // demand re-referenced since fill
}

// NewSHiP builds a SHiP policy. Options used: Seed (training-set
// sampling).
func NewSHiP(g cache.Geometry, opt Options) *SHiP {
	shct := make([]uint8, g.Cores<<SignatureBits)
	// SHiP initialises counters to a weakly-reusable state so that cold
	// signatures are not predicted distant before any training.
	for i := range shct {
		shct[i] = 1
	}
	// Sample ~1/64 of the sets (at least 8, at most all) for training,
	// preserving the paper-scale training fraction on scaled caches.
	n := g.Sets / 64
	if n < 8 {
		n = 8
	}
	if n > g.Sets {
		n = g.Sets
	}
	src := rng.New(opt.Seed ^ 0x0C0FFEE123456789)
	sampled := src.Sample(g.Sets, n)
	trainIdx := make([]int32, g.Sets)
	for i := range trainIdx {
		trainIdx[i] = -1
	}
	for i, s := range sampled {
		trainIdx[s] = int32(i)
	}
	return &SHiP{
		Engine:   cache.NewEngine(g),
		shct:     shct,
		trainIdx: trainIdx,
		train:    make([]shipTrain, n*g.Ways),
		ways:     g.Ways,
	}
}

// Name implements cache.ReplacementPolicy.
func (p *SHiP) Name() string {
	if p.bypass {
		return "ship-bp"
	}
	return "ship"
}

// Signature maps a PC to its SHCT index.
func Signature(pc uint64) uint16 {
	return uint16((pc ^ pc>>SignatureBits ^ pc>>(2*SignatureBits)) & (1<<SignatureBits - 1))
}

func (p *SHiP) trainSlot(set, way int) int {
	ti := p.trainIdx[set]
	if ti < 0 {
		return -1
	}
	return int(ti)*p.ways + way
}

// OnHit promotes demand hits and trains the SHCT positively in sampled sets.
func (p *SHiP) OnHit(a *cache.Access, set, way int) {
	p.Promote(set, way)
	if slot := p.trainSlot(set, way); slot >= 0 {
		if tr := &p.train[slot]; tr.valid && !tr.reused {
			tr.reused = true
			if c := &p.shct[int(tr.core)<<SignatureBits|int(tr.sig)]; *c < SHCTMax {
				*c++
			}
		}
	}
}

// predictDistant reports whether the fill's signature has never shown reuse.
func (p *SHiP) predictDistant(a *cache.Access) bool {
	p.totalPredictions++
	distant := p.shct[a.Core<<SignatureBits|int(Signature(a.PC))] == 0
	if distant {
		p.distantPredictions++
	}
	return distant
}

// FillDecision allocates unless the bypass variant is active and the fill is
// a demand insertion predicted distant. Training (sampled) sets always
// allocate so the SHCT can keep learning: without this, a signature that
// reaches zero would be bypassed forever with no path back.
func (p *SHiP) FillDecision(a *cache.Access, set int, valid, ways uint64) (int, bool) {
	if p.bypass && a.Demand && p.trainIdx[set] < 0 && p.predictDistant(a) {
		return -1, false
	}
	return p.VictimFor(set, valid, ways), true
}

// OnFill inserts per the SHCT prediction and records training state in
// sampled sets.
func (p *SHiP) OnFill(a *cache.Access, set, way int) {
	if !a.Demand {
		p.SetRRPV(set, way, NonDemandRRPV(a))
		if slot := p.trainSlot(set, way); slot >= 0 {
			p.train[slot].valid = false
		}
		return
	}
	v := uint8(MaxRRPV - 1)
	if !p.bypass || p.trainIdx[set] >= 0 {
		// Non-bypass mode, or a training set (which always allocates):
		// the prediction chooses the insertion value. In bypass mode's
		// follower sets FillDecision already consumed the prediction and
		// every allocated demand fill was predicted reused.
		if p.predictDistant(a) {
			v = MaxRRPV
		}
	}
	p.SetRRPV(set, way, v)
	if slot := p.trainSlot(set, way); slot >= 0 {
		p.train[slot] = shipTrain{sig: Signature(a.PC), core: uint16(a.Core), valid: true}
	}
}

// OnEvict implements cache.EvictObserver: it trains the SHCT negatively
// for lines that die without reuse.
func (p *SHiP) OnEvict(set, way int, ev cache.EvictedLine) {
	if slot := p.trainSlot(set, way); slot >= 0 {
		if tr := &p.train[slot]; tr.valid {
			if !tr.reused {
				if c := &p.shct[int(tr.core)<<SignatureBits|int(tr.sig)]; *c > 0 {
					*c--
				}
			}
			tr.valid = false
		}
	}
}

// DistantFraction returns the fraction of fill predictions that were
// "distant", the quantity the paper reports as ~3% for SHiP at 16 cores.
func (p *SHiP) DistantFraction() float64 {
	if p.totalPredictions == 0 {
		return 0
	}
	return float64(p.distantPredictions) / float64(p.totalPredictions)
}

// SHCTValue exposes one counter for tests.
func (p *SHiP) SHCTValue(core int, sig uint16) uint8 {
	return p.shct[core<<SignatureBits|int(sig)]
}
