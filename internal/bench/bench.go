// Package bench defines the 38 benchmark models of the paper's Table 4 —
// SPEC CPU 2000/2006, PARSEC and STREAM applications characterised by their
// Footprint-number and L2-MPKI — as parameterisations of the synthetic
// generators in internal/trace (its package comment explains the
// substitution).
//
// Each Spec records the paper's measured Footprint-number (the Fpn(A)
// column) and L2-MPKI, and derives generator parameters from them:
//
//   - The working set is Fpn × LLC sets blocks, so that a full sweep leaves
//     Fpn unique blocks per LLC set — the definition of Footprint-number.
//     Sizing in sets (not bytes) keeps the classification intact when
//     experiments run on scaled-down caches.
//   - The memory-instruction ratio is set so the LLC-visible access rate
//     matches the L2-MPKI target given the family's L1/L2 filtering.
//
// The package also implements Table 5's empirical classification and the
// thrashing-application list of Figures 1 and 4.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Class is the Table 5 memory-intensity class.
type Class uint8

// Classes in increasing intensity order.
const (
	VeryLow Class = iota
	Low
	Medium
	High
	VeryHigh
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case VeryLow:
		return "VL"
	case Low:
		return "L"
	case Medium:
		return "M"
	case High:
		return "H"
	case VeryHigh:
		return "VH"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// AllClasses lists the classes in order.
func AllClasses() []Class { return []Class{VeryLow, Low, Medium, High, VeryHigh} }

// Classify implements Table 5: applications with Footprint-number below 16
// are VL/L/M by L2-MPKI (<1, [1,5), >=5); applications at or above 16 are
// M/H/VH (<5, [5,25), >=25).
func Classify(fpn, mpki float64) Class {
	if fpn < 16 {
		switch {
		case mpki < 1:
			return VeryLow
		case mpki < 5:
			return Low
		default:
			return Medium
		}
	}
	switch {
	case mpki < 5:
		return Medium
	case mpki < 25:
		return High
	default:
		return VeryHigh
	}
}

// Family selects the trace-generator archetype of a benchmark.
type Family uint8

// Generator families.
const (
	FamWorkingSet Family = iota
	FamCyclic
	FamStream
	FamMixedScan
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamWorkingSet:
		return "workingset"
	case FamCyclic:
		return "cyclic"
	case FamStream:
		return "stream"
	case FamMixedScan:
		return "mixedscan"
	default:
		return fmt.Sprintf("Family(%d)", uint8(f))
	}
}

// Spec is one benchmark model.
type Spec struct {
	Name   string
	Family Family
	// Fpn is the paper's Table 4 Footprint-number (the all-sets Fpn(A)
	// column), which sizes the working set.
	Fpn float64
	// L2MPKI is the paper's Table 4 L2-MPKI, which sets memory intensity.
	L2MPKI float64
	// PaperClass is the class column as printed in Table 4. For 36 of 38
	// rows it equals Classify(Fpn, L2MPKI); the exceptions are hmm (rule
	// says L, table says M) and astar (rule says M, table says H), where we
	// follow the table because the workload studies depend on it.
	PaperClass Class
	// WriteRatio is the store fraction of the access stream.
	WriteRatio float64
	// Bursty selects the correlated-burst variant: the same address/PC/
	// write stream, with the i.i.d.-jittered gap process replaced by a
	// two-state markov-modulated one (trace.MarkovBurst) of identical
	// long-run intensity. See Burst / the "+burst" name suffix.
	Bursty bool
}

// Class returns the paper's Table 4 classification.
func (s Spec) Class() Class { return s.PaperClass }

// Thrashing reports whether the benchmark occupies at least a full cache
// worth of ways (Footprint-number >= 16): the Least-priority candidates.
func (s Spec) Thrashing() bool { return s.Fpn >= 16 }

// Geometry tells a Spec how big the machine is so the generator can be
// sized relative to the LLC and L2.
type Geometry struct {
	LLCSets    int // working sets scale with this
	L2Blocks   int // hot subsets are sized to live in the L2
	BlockBytes int
}

// Generator instantiates the benchmark's address stream for one core.
// base is the core's private block-address region; seed keeps multiple
// instances of the same benchmark decorrelated.
func (s Spec) Generator(g Geometry, base uint64, seed uint64) trace.Generator {
	ws := uint64(s.Fpn * float64(g.LLCSets))
	if ws < 64 {
		ws = 64
	}
	// Burst variants hash the base model's name so the inner generator —
	// addresses, PCs, writes — is bit-identical to the plain model's; only
	// the gap process differs.
	nameHash := hashName(strings.TrimSuffix(s.Name, BurstSuffix))
	p := trace.Params{
		Base:       base,
		MemRatio:   s.memRatio(),
		WriteRatio: s.WriteRatio,
		PCBase:     0x400000 + uint64(nameHash)<<8,
		Seed:       seed ^ uint64(nameHash),
	}
	hot := uint64(g.L2Blocks / 4)
	if hot < 16 {
		hot = 16
	}
	var inner trace.Generator
	switch s.Family {
	case FamCyclic:
		// Stride 3: cyclic-reuse codes are not block-sequential, and the
		// stride keeps the L1 next-line prefetcher from (unrealistically)
		// hiding half of a synthetic sweep.
		inner = trace.NewCyclicStride(p, ws, 3)
	case FamStream:
		// Streams never reuse: region far larger than any cache.
		region := uint64(64 * g.LLCSets)
		if region < ws {
			region = ws
		}
		inner = trace.NewStream(p, region)
	case FamMixedScan:
		if hot > ws/2 {
			hot = ws / 2
		}
		if hot == 0 {
			hot = 1
		}
		scanRegion := ws - hot
		if scanRegion < 64 {
			scanRegion = 64
		}
		const scanLen = 16
		k := s.mixedHotRefs(scanLen)
		inner = trace.NewMixedScan(p, hot, k, scanLen, scanRegion)
	default: // FamWorkingSet
		hotFrac := float64(hot) / float64(ws)
		if hotFrac > 0.5 {
			hotFrac = 0.5
		}
		inner = trace.NewWorkingSet(p, ws, hotFrac, s.hotProb())
	}
	if s.Bursty {
		return trace.NewMarkovBurst(inner, s.BurstParams(), p.Seed^burstSeedSalt)
	}
	return inner
}

// BurstSuffix is the benchmark-name suffix selecting a model's
// correlated-burst variant in ByName/MustByName: "libq+burst" is libq's
// address stream under the markov-modulated gap process.
const BurstSuffix = "+burst"

// burstSeedSalt decorrelates the burst phase process from the inner
// generator's own sampling.
const burstSeedSalt = 0xB17B00B5

// Burst phase shape: the burst phase runs at four times the model's mean
// intensity (capped) for a geometric mean of burstOps references, and the
// calm phase absorbs the difference over calmOps references so the
// long-run intensity — and with it the model's Table 4/5 classification —
// is exactly preserved.
const (
	burstRatioGain = 4.0
	burstRatioCap  = 0.8
	burstPhaseOps  = 16.0
	calmPhaseOps   = 48.0
)

// BurstParams derives the two-state gap process of the spec's burst
// variant: BurstMemRatio = min(burstRatioGain x mean, burstRatioCap), with
// CalmMemRatio solved so BurstParams.MeanMemRatio equals the plain model's
// memory-instruction ratio exactly. Intensity-preserving by construction:
// only the gap *correlation* changes, which is the point — arbiter-wait
// histograms can then be compared across calm/burst mixes with everything
// else held fixed.
func (s Spec) BurstParams() trace.BurstParams {
	r := s.memRatio()
	rb := clamp(burstRatioGain*r, r, burstRatioCap)
	meanGap := (1 - r) / r
	burstGap := (1 - rb) / rb
	calmGap := ((calmPhaseOps+burstPhaseOps)*meanGap - burstPhaseOps*burstGap) / calmPhaseOps
	return trace.BurstParams{
		CalmMemRatio:  1 / (1 + calmGap),
		BurstMemRatio: rb,
		CalmOps:       calmPhaseOps,
		BurstOps:      burstPhaseOps,
	}
}

// Burst returns the spec's correlated-burst variant, named with
// BurstSuffix. Footprint, write ratio and classification are unchanged.
func (s Spec) Burst() Spec {
	if s.Bursty {
		return s
	}
	s.Name += BurstSuffix
	s.Bursty = true
	return s
}

// baseMemRatio is the memory-instruction fraction of reuse-heavy families,
// a typical SPEC figure.
const baseMemRatio = 0.30

// memRatio derives the fraction of instructions that access memory so that
// the stream's LLC-visible demand rate approximates the Table 4 L2-MPKI.
func (s Spec) memRatio() float64 {
	switch s.Family {
	case FamCyclic:
		// Stride-3 sweeps are prefetch-immune: every memory instruction
		// reaches the LLC as a demand access.
		return clamp(s.L2MPKI/1000, 0.0005, 0.45)
	case FamStream:
		// Sequential streams are half-covered by the L1 next-line
		// prefetcher: only alternate blocks are demand-visible at the LLC,
		// so the instruction-level rate is doubled to hit the demand
		// target.
		return clamp(2*s.L2MPKI/1000, 0.0005, 0.45)
	default:
		// Hot references are filtered by L1/L2; only the cold fraction
		// reaches the LLC (see hotProb).
		return baseMemRatio
	}
}

// hotProb (WorkingSet family): the probability of a hot (L2-resident)
// access, chosen so cold accesses arrive at the LLC at the target MPKI.
func (s Spec) hotProb() float64 {
	cold := s.L2MPKI / (1000 * baseMemRatio)
	return clamp(1-cold, 0, 0.9999)
}

// mixedHotRefs (MixedScan family): hot references per scan burst, chosen so
// the scan fraction of accesses matches the target MPKI. Scan bursts are
// sequential, so the next-line prefetcher hides roughly half of them; the
// fraction is doubled to hit the demand-visible target.
func (s Spec) mixedHotRefs(scanLen int) int {
	scanFrac := clamp(2*s.L2MPKI/(1000*baseMemRatio), 0.001, 0.95)
	k := int(float64(scanLen)*(1-scanFrac)/scanFrac + 0.5)
	if k < 1 {
		k = 1
	}
	return k
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func hashName(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}
