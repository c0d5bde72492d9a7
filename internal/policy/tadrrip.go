package policy

import "repro/internal/cache"

// TADRRIP is Thread-Aware DRRIP (Jaleel et al.), the paper's LLC baseline:
// each thread duels SRRIP against BRRIP with its own leader sets and its own
// PSEL, so different threads can adopt different insertion policies.
//
// Three paper-specific variants hang off the options:
//
//   - SD=64 vs SD=128 leader sets per policy per thread (Figure 1a shows the
//     baseline is insensitive to this).
//   - ForcedBRRIP: an oracle that forces the fills of designated (thrashing)
//     cores to BRRIP regardless of what dueling learned — the
//     "TA-DRRIP(forced)" bar of Figure 1 that motivates ADAPT.
//   - BypassDistant: distant-value demand fills are bypassed instead of
//     inserted (Figure 6), which organically teaches the duel to prefer
//     BRRIP for thrashing threads.
type TADRRIP struct {
	cache.Engine
	duel    *duelMap
	sels    []psel
	eps     []EpsilonCounter
	forced  []bool
	bypass  bool
	sdValue int
}

// NewTADRRIP builds a TA-DRRIP policy from options (Seed, SD, ForcedBRRIP,
// BypassDistant).
func NewTADRRIP(g cache.Geometry, opt Options) *TADRRIP {
	sd := effectiveSD(g.Sets, g.Cores, opt.SD)
	sels := make([]psel, g.Cores)
	eps := make([]EpsilonCounter, g.Cores)
	for i := range sels {
		sels[i] = newPSEL(PSELBits)
		eps[i] = NewEpsilonCounter(BRRIPEpsilonPeriod)
	}
	forced := make([]bool, g.Cores)
	copy(forced, opt.ForcedBRRIP)
	return &TADRRIP{
		Engine:  cache.NewEngine(g),
		duel:    newDuelMap(g.Sets, g.Cores, sd, opt.Seed),
		sels:    sels,
		eps:     eps,
		forced:  forced,
		bypass:  opt.BypassDistant,
		sdValue: sd,
	}
}

// Name implements cache.ReplacementPolicy.
func (p *TADRRIP) Name() string {
	switch {
	case p.bypass:
		return "tadrrip-bp"
	case p.anyForced():
		return "tadrrip-forced"
	default:
		return "tadrrip"
	}
}

func (p *TADRRIP) anyForced() bool {
	for _, f := range p.forced {
		if f {
			return true
		}
	}
	return false
}

// SD returns the effective leader-set count per policy per thread.
func (p *TADRRIP) SD() int { return p.sdValue }

// OnMiss implements cache.MissObserver: it updates the owning thread's PSEL
// when a demand miss lands in one of that thread's own leader sets.
func (p *TADRRIP) OnMiss(a *cache.Access, set int) {
	role := p.duel.role(set)
	if role == follower || p.duel.owner(set) != a.Core {
		return
	}
	if role == leaderSRRIP {
		p.sels[a.Core].srripMiss()
	} else {
		p.sels[a.Core].brripMiss()
	}
}

// useBRRIPFor resolves the insertion policy for a fill by thread `core` into
// `set`: forced threads always use BRRIP; a thread filling its own leader
// set uses the leader's policy; otherwise its PSEL decides.
func (p *TADRRIP) useBRRIPFor(core, set int) bool {
	if p.forced[core] {
		return true
	}
	if role := p.duel.role(set); role != follower && p.duel.owner(set) == core {
		return role == leaderBRRIP
	}
	return p.sels[core].preferBRRIP()
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
	if !p.useBRRIPFor(a.Core, set) {
		p.SetRRPV(set, way, MaxRRPV-1)
		return
	}
	if p.bypass {
		// FillDecision already consumed the epsilon counter and decided this
		// fill is the 1-in-32 long insertion.
		p.SetRRPV(set, way, MaxRRPV-1)
		return
	}
	if p.eps[a.Core].Fire() {
		p.SetRRPV(set, way, MaxRRPV-1)
		return
	}
	p.SetRRPV(set, way, MaxRRPV)
}

// PreferBRRIP exposes a thread's selector state for tests and diagnostics.
func (p *TADRRIP) PreferBRRIP(core int) bool { return p.sels[core].preferBRRIP() }
