package policy

import "repro/internal/rng"

// Set-dueling machinery of TA-DRRIP and of DRRIP, its one-selector case.
//
// A small number of "leader" sets is dedicated to each competing insertion
// policy; a saturating PSEL counter tallies their demand misses (misses in
// SRRIP leaders increment, misses in BRRIP leaders decrement) and the
// remaining "follower" sets adopt whichever policy the counter favours.
// The paper's description (§2): 10-bit counter, switching threshold 512,
// 64 (or 128) dedicated sets per policy.

// Leader-set roles.
const (
	follower    = 0
	leaderSRRIP = 1
	leaderBRRIP = 2
)

// duelMap assigns roles to sets, packed one uint16 per set: the role in the
// low two bits, the owning thread above them. For DRRIP the owner is always
// 0; for TA-DRRIP each thread has its own leader sets and PSEL. Leader-set
// resolution sits on the per-fill hot path, and the packed form answers
// both questions (role and owner) with a single dense load.
type duelMap struct {
	code []uint16 // per set: owner<<2 | role
}

// role returns the set's dueling role.
func (m *duelMap) role(set int) uint8 { return uint8(m.code[set] & 3) }

// owner returns the thread owning a leader set (0 for followers).
func (m *duelMap) owner(set int) int { return int(m.code[set] >> 2) }

// effectiveSD resolves the leader-set count per policy per thread. The
// default preserves the paper's *fraction* of dedicated sets (64 of 16384 =
// 1/256 per policy) so that scaled-down caches duel with the same
// signal-to-noise ratio as the full-size machine; explicitly requested
// counts are honoured up to the physical cap of a quarter of all sets per
// (thread, policy) pair.
func effectiveSD(sets, threads, sd int) int {
	if sd <= 0 {
		sd = sets / 256
		if sd < 1 {
			sd = 1
		}
		if sd > DefaultSD {
			sd = DefaultSD
		}
	}
	physical := sets / (4 * threads)
	if physical < 1 {
		physical = 1
	}
	if sd > physical {
		sd = physical
	}
	return sd
}

// newDuelMap dedicates sd leader sets per policy to each of `threads`
// threads, sampled deterministically from seed.
//
// On degenerate geometries — a scaled-down cache shared by more threads
// than half its sets (e.g. 128 threads on a -cache-scale 128 machine) —
// even sd=1 leader pairs for every thread exceed the cache. Rather than
// panic, complete SRRIP+BRRIP pairs go to as many threads as fit; the
// remaining threads keep their initial PSEL (SRRIP-preferring) and still
// insert by it. Non-degenerate geometries (2*threads*sd <= sets, which
// includes every paper-scale and tiny-fidelity study configuration) are
// bit-identical to the unclamped assignment.
func newDuelMap(sets, threads, sd int, seed uint64) *duelMap {
	if 2*threads*sd > sets {
		sd = 1
		if pairs := sets / 2; threads > pairs {
			threads = pairs
		}
	}
	m := &duelMap{code: make([]uint16, sets)}
	src := rng.New(seed ^ 0xA5A5A5A55A5A5A5A)
	need := 2 * threads * sd
	chosen := src.Sample(sets, need)
	// Interleave assignment so each thread gets a spread of set indices.
	src.Shuffle(len(chosen), func(i, j int) { chosen[i], chosen[j] = chosen[j], chosen[i] })
	k := 0
	for t := 0; t < threads; t++ {
		for i := 0; i < sd; i++ {
			m.code[chosen[k]] = uint16(t)<<2 | leaderSRRIP
			k++
			m.code[chosen[k]] = uint16(t)<<2 | leaderBRRIP
			k++
		}
	}
	return m
}

// psel is a saturating set-dueling selector.
type psel struct {
	value     int
	max       int
	threshold int
}

func newPSEL(bits int) psel {
	if bits <= 0 {
		bits = PSELBits
	}
	maxVal := 1<<bits - 1
	return psel{value: 0, max: maxVal, threshold: 1 << (bits - 1)}
}

func (p *psel) srripMiss() {
	if p.value < p.max {
		p.value++
	}
}

func (p *psel) brripMiss() {
	if p.value > 0 {
		p.value--
	}
}

// preferBRRIP reports whether followers should use BRRIP (SRRIP has been
// missing more).
func (p *psel) preferBRRIP() bool { return p.value >= p.threshold }
