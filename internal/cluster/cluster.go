// Package cluster implements an OS-level, fairness-oriented cache-clustering
// layer in the spirit of LFOC and LFOC+ (Garcia-Garcia et al.,
// arXiv:2402.07578; Saez et al., arXiv:2402.07693): instead of choosing a
// per-thread *insertion* policy — the source paper's lever — the manager
// classifies each application online, groups the applications into clusters
// (streaming, light-sharing, cache-sensitive), and partitions the shared LLC
// between the clusters with per-core way masks enforced at victim selection.
//
// The two levers answer the same shared-LLC contention problem from opposite
// ends, which is why the repository carries both: discrete insertion policies
// decide *what deserves to stay* per fill, clustering decides *how much space
// each class of application may occupy* per epoch. internal/experiments
// compares them head-to-head on the same mixes with the fairness metric
// suite in internal/metrics.
//
// # Online classification
//
// The classifier consumes only counters that are updated at the shared
// substrate's LLC lookup, in the simulator's global event order (see
// internal/sim): per-app LLC demand accesses and misses, a sequential-stride
// detector over the app's own LLC-visible block stream (the LLC-side proxy
// for DRAM row-buffer locality — near-sequential LLC misses are exactly the
// accesses that land in an open DRAM row), and the app's arbiter queueing
// delays bucketed as in arbiter.WaitHist. Every Observe call and every
// reclassification therefore happens at a fixed point of the
// (clock, core-index) total order, which is what keeps clustered runs
// bit-identical across batch caps. Instruction counts are deliberately NOT used online: another core's
// retired-instruction counter is private state with no defined value at a
// substrate call, so online rates are per-access and per-epoch, never
// per-kilo-instruction; the true MPKI-based fairness accounting happens
// offline in internal/metrics from the finished sim.Result.
//
// Classification runs at epoch boundaries (every Config.EpochAccesses
// global LLC demand accesses):
//
//   - An app whose share of the epoch's LLC traffic is below LightShare is
//     Light — it barely touches the LLC and loses nothing in a small
//     partition — unless the tail of its arbiter-wait distribution (share of
//     requests waiting >= TailWaitCycles) reaches VictimTailShare: a scarce
//     but latency-bound app is a contention *victim* (the LFOC+ refinement)
//     and keeps the protected Sensitive partition.
//   - An app whose epoch miss ratio is at least StreamMissRatio and whose
//     sequential-stride fraction is at least StreamSeqFrac is Streaming: it
//     pulls data through the cache without reuse, so caching it is wasted
//     space that a small dedicated partition reclaims for everyone else.
//   - Everything else is Sensitive: it extracts hits from the LLC and gets
//     the large protected partition.
//
// Until the first epoch boundary every app is Unknown and unrestricted
// (full-cache mask), exactly like the warm-up behaviour of the set-dueling
// policies.
package cluster

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
)

// ModeLFOC is the Config.Mode value that enables the LFOC-style clustering
// manager. The empty mode disables clustering entirely (no manager is
// built, no masks are ever set).
const ModeLFOC = "lfoc"

// The classifier's thresholds and way quotas: one LFOC-style setting, the
// one every experiment runs.
const (
	// StreamingWays is the streaming cluster's way quota.
	StreamingWays = 2
	// LightWays is the light-sharing cluster's way quota.
	LightWays = 1
	// StreamMissRatio is the epoch miss-ratio threshold at or above which
	// an app is a streaming candidate.
	StreamMissRatio = 0.60
	// StreamSeqFrac is the sequential-stride fraction threshold that
	// confirms a streaming candidate.
	StreamSeqFrac = 0.35
	// LightShare is the traffic share below which an app is Light.
	LightShare = 0.02
	// VictimTailShare is the wait-tail share at or above which a
	// low-traffic app is kept Sensitive instead of demoted to Light.
	VictimTailShare = 0.50
	// TailWaitCycles is the queueing delay from which a request counts
	// into the wait tail.
	TailWaitCycles = 64
	// DefaultEpochBlocksFactor sizes the default epoch: EpochAccesses =
	// factor x LLC blocks, so epochs scale with the cache exactly like the
	// benchmark working sets and ADAPT's monitoring interval do.
	DefaultEpochBlocksFactor = 4
	// seqStrideMax is the largest forward block stride still counted as
	// sequential: demand-visible streams stride by 2 under the L1 next-line
	// prefetcher and the cyclic sweeps stride by 3.
	seqStrideMax = 4
)

// Class is the classifier's verdict for one application.
type Class uint8

// Classes, in mask-assignment order (streaming ways first, then light,
// then the sensitive remainder).
const (
	// Unknown is the pre-first-epoch state: unclassified, unrestricted.
	Unknown Class = iota
	// Streaming apps pull data through the LLC without reuse.
	Streaming
	// Light apps contribute a negligible share of LLC traffic.
	Light
	// Sensitive apps extract hits from the LLC and get the protected
	// partition. Unknown apps share it until classified.
	Sensitive
)

// String implements fmt.Stringer; the labels appear in sim.AppResult.Cluster
// and the experiment tables.
func (c Class) String() string {
	switch c {
	case Streaming:
		return "stream"
	case Light:
		return "light"
	case Sensitive:
		return "sensitive"
	default:
		return "unclassified"
	}
}

// Config parameterises the clustering manager. It is embedded in sim.Config
// and participates in the config fingerprint: two runs differing in any
// field here are different simulations. The zero value (Mode == "")
// disables clustering; Mode == ModeLFOC with a zero EpochAccesses selects
// the default epoch.
type Config struct {
	// Mode selects the clustering policy: "" = off, ModeLFOC = on.
	Mode string
	// EpochAccesses is the number of global LLC demand accesses between
	// reclassifications (0 = DefaultEpochBlocksFactor x LLC blocks).
	EpochAccesses uint64
}

// Enabled reports whether clustering is switched on.
func (c Config) Enabled() bool { return c.Mode != "" }

// Validate reports whether the configuration is usable on an LLC with the
// given associativity.
func (c Config) Validate(llcWays int) error {
	if !c.Enabled() {
		return nil
	}
	if c.Mode != ModeLFOC {
		return fmt.Errorf("cluster: unknown mode %q (supported: %q)", c.Mode, ModeLFOC)
	}
	if llcWays > 64 {
		return fmt.Errorf("cluster: way masks support at most 64 ways, LLC has %d", llcWays)
	}
	if StreamingWays+LightWays >= llcWays {
		return fmt.Errorf("cluster: streaming (%d) + light (%d) quotas leave no sensitive ways on a %d-way LLC",
			StreamingWays, LightWays, llcWays)
	}
	return nil
}

// profile is one application's epoch counters. Everything here is written
// only by Observe calls for that application, which the substrate issues in
// the global event order — so any later read (a reclassification, a final
// snapshot) sees a deterministic value.
type profile struct {
	accesses uint64 // LLC demand accesses this epoch
	misses   uint64 // LLC demand misses this epoch
	seq      uint64 // accesses at a forward stride <= seqStrideMax
	tail     uint64 // accesses that waited >= TailWaitCycles at the arbiter
	last     uint64 // previous block address (stride detector state)
	hasLast  bool
}

// Manager is the clustering controller for one simulated machine. It is
// driven exclusively from the substrate's LLC lookup (one Observe per LLC
// demand access), in the global event order, and is not safe for
// concurrent use.
type Manager struct {
	epoch uint64 // demand accesses per epoch: EpochAccesses or its default
	cores int
	ways  int
	full  uint64 // mask with every way set
	apply func(core int, mask uint64)

	seen    uint64 // demand accesses in the current epoch
	epochs  uint64 // completed reclassifications
	prof    []profile
	classes []Class
	masks   []uint64 // 0 = unrestricted (pre-classification)
}

// New builds a manager for an LLC of the given geometry. apply is invoked
// once per core at every epoch boundary with the core's new way mask; the
// simulator passes the LLC's Cache.SetWayMask. New panics on invalid
// configuration — construction happens from vetted sim.Configs.
func New(cfg Config, g cache.Geometry, apply func(core int, mask uint64)) *Manager {
	if err := cfg.Validate(g.Ways); err != nil {
		panic(err)
	}
	epoch := cfg.EpochAccesses
	if epoch == 0 {
		epoch = DefaultEpochBlocksFactor * uint64(g.Blocks())
	}
	return &Manager{
		epoch:   epoch,
		cores:   g.Cores,
		ways:    g.Ways,
		full:    (uint64(1) << g.Ways) - 1,
		apply:   apply,
		prof:    make([]profile, g.Cores),
		classes: make([]Class, g.Cores),
		masks:   make([]uint64, g.Cores),
	}
}

// Observe records one LLC demand access: core's reference to block, whether
// it missed, and its queueing delay at the VPC arbiter. Crossing the epoch
// boundary reclassifies every app and re-applies the way masks before
// returning, so the fill for the *next* access already sees the new
// partitions.
func (m *Manager) Observe(core int, block uint64, miss bool, wait uint64) {
	p := &m.prof[core]
	p.accesses++
	if miss {
		p.misses++
	}
	if p.hasLast {
		if d := block - p.last; d >= 1 && d <= seqStrideMax {
			p.seq++
		}
	}
	p.last, p.hasLast = block, true
	if wait >= TailWaitCycles {
		p.tail++
	}
	m.seen++
	if m.seen >= m.epoch {
		m.reclassify()
		m.seen = 0
	}
}

// reclassify ends an epoch: classify every app from its epoch counters,
// rebuild the cluster way masks, push them to the cache, and zero the
// epoch counters (stride-detector state carries over).
func (m *Manager) reclassify() {
	m.epochs++
	total := m.seen
	for i := range m.prof {
		p := &m.prof[i]
		m.classes[i] = classify(p, total)
		p.accesses, p.misses, p.seq, p.tail = 0, 0, 0, 0
	}
	m.assignMasks()
	if m.apply != nil {
		for core, mask := range m.masks {
			m.apply(core, mask)
		}
	}
}

// classify is the per-app decision rule documented in the package comment.
func classify(p *profile, total uint64) Class {
	if p.accesses == 0 {
		return Light
	}
	share := float64(p.accesses) / float64(total)
	if share < LightShare {
		if float64(p.tail)/float64(p.accesses) >= VictimTailShare {
			return Sensitive // LFOC+ victim protection
		}
		return Light
	}
	missRatio := float64(p.misses) / float64(p.accesses)
	seqFrac := float64(p.seq) / float64(p.accesses)
	if missRatio >= StreamMissRatio && seqFrac >= StreamSeqFrac {
		return Streaming
	}
	return Sensitive
}

// assignMasks partitions the ways between the clusters that currently have
// members: streaming ways first, then light, then the sensitive remainder.
// Quotas of absent clusters flow to the sensitive cluster (or, when no app
// is sensitive, to the remaining present cluster) so the whole cache is
// always in use. The resulting masks are disjoint, cover every way, and are
// never empty — assignMasks panics otherwise, which is the enforcement
// invariant the property tests pin.
func (m *Manager) assignMasks() {
	var nStream, nLight, nSens int
	for _, c := range m.classes {
		switch c {
		case Streaming:
			nStream++
		case Light:
			nLight++
		default: // Sensitive and Unknown share the protected partition
			nSens++
		}
	}
	sw, lw := 0, 0
	if nStream > 0 {
		sw = StreamingWays
	}
	if nLight > 0 {
		lw = LightWays
	}
	senW := m.ways - sw - lw
	if nSens == 0 {
		if nStream > 0 {
			sw += senW
		} else {
			lw += senW
		}
		senW = 0
	}
	span := func(lo, n int) uint64 {
		if n <= 0 {
			return 0
		}
		return ((uint64(1) << n) - 1) << lo
	}
	byClass := map[Class]uint64{
		Streaming: span(0, sw),
		Light:     span(sw, lw),
		Sensitive: span(sw+lw, senW),
		Unknown:   span(sw+lw, senW),
	}
	var union uint64
	for core, c := range m.classes {
		mask := byClass[c]
		if mask == 0 || mask&^m.full != 0 {
			panic(fmt.Sprintf("cluster: invalid way mask %#x for core %d class %v (%d ways)",
				mask, core, c, m.ways))
		}
		m.masks[core] = mask
		union |= mask
	}
	if m.cores > 0 && union&m.full != union {
		panic(fmt.Sprintf("cluster: mask union %#x exceeds the %d-way cache", union, m.ways))
	}
}

// Epochs returns the number of completed reclassifications.
func (m *Manager) Epochs() uint64 { return m.epochs }

// Classes returns a copy of the current per-core classifications.
func (m *Manager) Classes() []Class {
	return append([]Class(nil), m.classes...)
}

// Masks returns a copy of the current per-core way masks; 0 means the core
// is still unrestricted (no epoch boundary yet).
func (m *Manager) Masks() []uint64 {
	return append([]uint64(nil), m.masks...)
}

// WaysOf returns how many LLC ways core's fills may currently use.
func (m *Manager) WaysOf(core int) int {
	if m.masks[core] == 0 {
		return m.ways
	}
	return bits.OnesCount64(m.masks[core])
}
