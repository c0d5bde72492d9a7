package policy

import (
	"slices"

	"repro/internal/cache"
)

// TADRRIP is Thread-Aware DRRIP (Jaleel et al.), the paper's LLC baseline:
// each thread duels SRRIP against BRRIP with its own leader sets and its own
// PSEL, so different threads can adopt different insertion policies.
//
// DRRIP, the policy of every private L2 in Table 3, is its one-thread case
// (NewDRRIP): one leader-set assignment and one PSEL that every core trains
// and reads.
//
// Variants come from registry names, not Options: "tadrrip-sd128" dedicates
// 128 leader sets per policy per thread instead of 64 (Figure 1a shows the
// baseline is insensitive to this), and "tadrrip-bp" bypasses distant-value
// demand fills (Figure 6), which organically teaches the duel to prefer
// BRRIP for thrashing threads. Options.ForcedBRRIP is Figure 1's
// "TA-DRRIP(forced)" oracle: it forces the fills of designated (thrashing)
// cores to BRRIP regardless of what dueling learned.
type TADRRIP struct {
	cache.Engine
	duel    *duelMap
	sels    []psel           // per duel thread
	one     [1]psel          // sels' storage when there is one thread
	eps     []EpsilonCounter // per core
	forced  []bool           // per core; nil when no core is forced
	shared  bool             // DRRIP: thread 0's selector serves every core
	bypass  bool
	sdValue int
}

// NewDRRIP builds DRRIP, which duels SRRIP against BRRIP with a single PSEL
// as in the original proposal. Options used: Seed. It ignores ForcedBRRIP
// and never bypasses.
func NewDRRIP(g cache.Geometry, opt Options) *TADRRIP {
	return newTADRRIP(g, opt, true, 0, false)
}

// NewTADRRIP builds a TA-DRRIP policy with sd leader sets per policy per
// thread (0 selects the scaled DefaultSD, see effectiveSD) that bypasses
// its distant-value demand fills if bypass is set. Options used: Seed and
// ForcedBRRIP.
func NewTADRRIP(g cache.Geometry, opt Options, sd int, bypass bool) *TADRRIP {
	return newTADRRIP(g, opt, false, sd, bypass)
}

// newTADRRIP builds set dueling with one selector per core, or with one
// that every core shares (DRRIP).
func newTADRRIP(g cache.Geometry, opt Options, shared bool, sd int, bypass bool) *TADRRIP {
	threads := g.Cores
	if shared {
		threads = 1
	}
	sd = effectiveSD(g.Sets, threads, sd)
	p := &TADRRIP{
		Engine:  cache.NewEngine(g),
		duel:    newDuelMap(g.Sets, threads, sd, opt.Seed),
		eps:     make([]EpsilonCounter, g.Cores),
		shared:  shared,
		bypass:  bypass,
		sdValue: sd,
	}
	p.sels = p.one[:]
	if threads > 1 {
		p.sels = make([]psel, threads)
	}
	for i := range p.sels {
		p.sels[i] = newPSEL(PSELBits)
	}
	for i := range p.eps {
		p.eps[i] = NewEpsilonCounter(BRRIPEpsilonPeriod)
	}
	forced := opt.ForcedBRRIP[:min(len(opt.ForcedBRRIP), g.Cores)]
	if !shared && slices.Contains(forced, true) {
		p.forced = make([]bool, g.Cores)
		copy(p.forced, forced)
	}
	return p
}

// Name implements cache.ReplacementPolicy.
func (p *TADRRIP) Name() string {
	switch {
	case p.shared:
		return "drrip"
	case p.bypass:
		return "tadrrip-bp"
	case p.forced != nil:
		return "tadrrip-forced"
	default:
		return "tadrrip"
	}
}

// SD returns the effective leader-set count per policy per thread.
func (p *TADRRIP) SD() int { return p.sdValue }

// thread returns the duel thread of a core: the core itself, or 0 when one
// selector serves every core.
func (p *TADRRIP) thread(core int) int {
	if p.shared {
		return 0
	}
	return core
}

// OnMiss implements cache.MissObserver: it updates the owning thread's PSEL
// when a demand miss lands in one of that thread's own leader sets.
func (p *TADRRIP) OnMiss(a *cache.Access, set int) {
	t := p.thread(a.Core)
	role := p.duel.role(set)
	if role == follower || p.duel.owner(set) != t {
		return
	}
	if role == leaderSRRIP {
		p.sels[t].srripMiss()
	} else {
		p.sels[t].brripMiss()
	}
}

// useBRRIPFor resolves the insertion policy for a fill by `core` into
// `set`: forced cores always use BRRIP; a fill into a leader set of the
// core's own thread uses the leader's policy; otherwise the thread's PSEL
// decides.
func (p *TADRRIP) useBRRIPFor(core, set int) bool {
	if p.forced != nil && p.forced[core] {
		return true
	}
	t := p.thread(core)
	if role := p.duel.role(set); role != follower && p.duel.owner(set) == t {
		return role == leaderBRRIP
	}
	return p.sels[t].preferBRRIP()
}

// FillDecision allocates unless the bypass variant is active and the fill
// would be a distant-value demand insertion.
func (p *TADRRIP) FillDecision(a *cache.Access, set int, valid, ways uint64) (int, bool) {
	if p.bypass && a.Demand && p.useBRRIPFor(a.Core, set) && !p.eps[a.Core].Fire() {
		return -1, false
	}
	return p.VictimFor(set, valid, ways), true
}

// OnFill applies the resolved insertion policy.
func (p *TADRRIP) OnFill(a *cache.Access, set, way int) {
	if !a.Demand {
		p.SetRRPV(set, way, NonDemandRRPV(a))
		return
	}
	// A BRRIP fill goes in distant but for the epsilon counter's 1 in 32.
	// The bypass variant's FillDecision already consumed the counter and
	// admitted only that one.
	v := uint8(MaxRRPV - 1)
	if p.useBRRIPFor(a.Core, set) && !p.bypass && !p.eps[a.Core].Fire() {
		v = MaxRRPV
	}
	p.SetRRPV(set, way, v)
}

// PreferBRRIP exposes the selector state of a core's thread for tests and
// diagnostics.
func (p *TADRRIP) PreferBRRIP(core int) bool { return p.sels[p.thread(core)].preferBRRIP() }
