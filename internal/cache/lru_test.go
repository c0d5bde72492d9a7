package cache

import (
	"math/bits"
	"testing"

	"repro/internal/rng"
)

// refLRU is the interface-dispatched LRU's victim scan as it stood before
// the LRUEngine, kept as the semantic reference: the lowest invalid
// candidate, else a branchy walk for the candidate with the oldest stamp,
// the lowest way winning ties.
type refLRU struct {
	ways  int
	stamp []uint64
	clock uint64
}

func (p *refLRU) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

func (p *refLRU) victim(set int, valid, ways uint64) int {
	if inv := ways &^ valid; inv != 0 {
		return bits.TrailingZeros64(inv)
	}
	base := set * p.ways
	victim, oldest := -1, uint64(0)
	for m := ways; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if s := p.stamp[base+w]; victim < 0 || s < oldest {
			victim, oldest = w, s
		}
	}
	return victim
}

// TestLRUVictimMatchesReference drives the LRUEngine and the reference scan
// over the same random stream of hits, fills and invalidations and requires
// the same victim at every fill, at every associativity the machines use
// (and 64, the widest a set's bitset holds), with every way a candidate and
// under random way masks. Invalidations keep invalid ways present in full
// sets, so the invalid-first rule is exercised throughout, not only while
// the cache warms; ways that turn valid without a touch keep stale stamps,
// some of them equal, so the lowest-way tie rule is exercised too.
func TestLRUVictimMatchesReference(t *testing.T) {
	for _, ways := range []int{8, 16, 24, 32, 64} {
		for _, masked := range []bool{false, true} {
			g := Geometry{Sets: 8, Ways: ways, Cores: 1}
			e := NewLRUEngine(g)
			ref := refLRU{ways: ways, stamp: make([]uint64, g.Sets*ways)}
			valid := make([]uint64, g.Sets)
			full := uint64(1)<<uint(ways) - 1
			src := rng.New(0x1A0 ^ uint64(ways))
			for step := 0; step < 40_000; step++ {
				set := src.Intn(g.Sets)
				switch k := src.Intn(16); {
				case k < 5: // demand hit on a resident line
					if valid[set] == 0 {
						continue
					}
					w := src.Intn(ways)
					if valid[set]&(1<<uint(w)) == 0 {
						continue
					}
					e.Touch(set, w)
					ref.touch(set, w)
				case k == 5: // a line leaves the set
					valid[set] &^= 1 << uint(src.Intn(ways))
				case k == 6: // a way turns valid untouched: stale and tied stamps
					valid[set] |= 1 << uint(src.Intn(ways))
				default: // miss: pick a victim and fill it
					cand := full
					if masked {
						if cand = src.Uint64() & full; cand == 0 {
							cand = full
						}
					}
					got, want := e.VictimFor(set, valid[set], cand), ref.victim(set, valid[set], cand)
					if got != want {
						t.Fatalf("%d ways, masked=%v, step %d: VictimFor(set %d, valid %#x, ways %#x) = %d, reference %d",
							ways, masked, step, set, valid[set], cand, got, want)
					}
					e.Touch(set, got)
					ref.touch(set, got)
					valid[set] |= 1 << uint(got)
				}
			}
		}
	}
}
