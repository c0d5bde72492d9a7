package cache

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rng"
)

// lruTest is policy.LRU in this package: every callback is the LRUEngine's,
// and its hot profile hands the engine over.
type lruTest struct{ LRUEngine }

func newLRUTest(g Geometry) ReplacementPolicy { return &lruTest{NewLRUEngine(g)} }

func (p *lruTest) Name() string                  { return "lru-test" }
func (p *lruTest) OnHit(a *Access, set, way int) { p.Touch(set, way) }
func (p *lruTest) FillDecision(a *Access, set int, valid, ways uint64) (int, bool) {
	return p.VictimFor(set, valid, ways), true
}
func (p *lruTest) OnFill(a *Access, set, way int) { p.Touch(set, way) }
func (p *lruTest) Hot() HotProfile                { return HotProfile{LRU: &p.LRUEngine} }

// srripTest is policy.SRRIP in this package: the Engine's hit and fill
// decision, insertion at MaxRRPV-1.
type srripTest struct{ Engine }

func newSRRIPTest(g Geometry) ReplacementPolicy { return &srripTest{NewEngine(g)} }

func (p *srripTest) Name() string                   { return "srrip-test" }
func (p *srripTest) OnFill(a *Access, set, way int) { p.SetRRPV(set, way, MaxRRPV-1) }
func (p *srripTest) Hot() HotProfile {
	return HotProfile{Engine: &p.Engine, PlainHit: true, PlainVictim: true}
}

// nextVictim is the way the next fill of set would replace, read without
// changing anything: the lowest invalid way, else LRU's oldest line or
// RRIP's lowest way at the set's maximum RRPV (the line aging selects).
func nextVictim(c *Cache, set int) int {
	valid := c.valid[set]
	if inv := c.full &^ valid; inv != 0 {
		return bits.TrailingZeros64(inv)
	}
	if lru := c.hotFull.LRU; lru != nil {
		return lru.VictimFor(set, valid, c.full)
	}
	e := c.hotFull.Engine
	victim := 0
	for w := 1; w < c.ways; w++ {
		if e.RRPVAt(set, w) > e.RRPVAt(set, victim) {
			victim = w
		}
	}
	return victim
}

// sameCache fails t unless got and want hold the same lines, counters and
// replacement state, and so pick the same next victim in every set.
func sameCache(t *testing.T, step int, got, want *Cache) {
	t.Helper()
	g := want.cfg.Geometry
	for set := 0; set < g.Sets; set++ {
		for way := 0; way < g.Ways; way++ {
			if gl, wl := got.LineAt(set, way), want.LineAt(set, way); gl != wl {
				t.Fatalf("step %d: set %d way %d holds %+v, Access alone %+v", step, set, way, gl, wl)
			}
		}
		if gv, wv := nextVictim(got, set), nextVictim(want, set); gv != wv {
			t.Fatalf("step %d: set %d would next evict way %d, Access alone way %d", step, set, gv, wv)
		}
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("step %d: counters %+v, Access alone %+v", step, got.stats, want.stats)
	}
	same := false
	switch p := got.policy.(type) {
	case *lruTest:
		q := want.policy.(*lruTest)
		same = p.clock == q.clock && slices.Equal(p.stamp, q.stamp)
	case *srripTest:
		q := want.policy.(*srripTest)
		same = slices.Equal(p.rrpv, q.rrpv)
	}
	if !same {
		t.Fatalf("step %d: replacement state differs from Access alone", step)
	}
}

// TestHitMatchesAccess drives two identical caches with one random stream
// of hits, fills and invalidations. One performs each reference with Hit,
// falling back to Access when Hit reports a miss; the other uses Access
// alone. After every reference both must hold the same lines, counters and
// replacement state, and a Hit that reports a miss must have left its cache
// exactly as the other, untouched one. References mix demand loads and
// stores, prefetches and write-backs from two cores, and hits on stale
// tags: an invalidated line keeps its tag with the valid bit clear.
func TestHitMatchesAccess(t *testing.T) {
	cases := []struct {
		name       string
		sets, ways int
		policy     func(Geometry) ReplacementPolicy
	}{
		{"lru/8x8", 8, 8, newLRUTest},
		{"lru/64x8", 64, 8, newLRUTest},
		{"srrip/16x16", 16, 16, newSRRIPTest},
	}
	for _, tc := range cases {
		for _, reference := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/reference=%v", tc.name, reference), func(t *testing.T) {
				g := Geometry{Sets: tc.sets, Ways: tc.ways, Cores: 2}
				withHit, accessOnly := New(testConfig(g.Sets, g.Ways, 2), tc.policy(g)), New(testConfig(g.Sets, g.Ways, 2), tc.policy(g))
				withHit.SetReferenceDispatch(reference)
				accessOnly.SetReferenceDispatch(reference)
				src := rng.New(uint64(g.Sets*g.Ways) ^ 0x417)
				for step := 0; step < 4_000; step++ {
					set, way := src.Intn(g.Sets), src.Intn(g.Ways)
					a := Access{Core: src.Intn(2), PC: src.Uint64n(64), Write: src.Intn(3) == 0, Demand: true}
					switch k := src.Intn(8); {
					case k == 0: // the line leaves both caches, its tag stale
						withHit.valid[set] &^= 1 << uint(way)
						accessOnly.valid[set] &^= 1 << uint(way)
						sameCache(t, step, withHit, accessOnly)
						continue
					case k < 5: // the line at (set, way): a hit, or a stale tag
						a.Block = withHit.BlockOf(set, withHit.tags[set*g.Ways+way])
					default: // anywhere in four times the cache: mostly a fill
						a.Block = src.Uint64n(uint64(4 * g.Blocks()))
					}
					switch src.Intn(6) {
					case 0: // prefetch
						a.Demand, a.Write = false, false
					case 1: // write-back
						a.Demand, a.Write, a.Writeback = false, true, true
					}
					ha, ra := a, a
					hit := withHit.Hit(&ha)
					if !hit {
						sameCache(t, step, withHit, accessOnly) // nothing changed yet
					}
					want := accessOnly.Access(&ra)
					if hit != want.Hit {
						t.Fatalf("step %d: Hit(%+v) = %v, Access hit %v", step, a, hit, want.Hit)
					}
					if !hit {
						if got := withHit.Access(&ha); got != want {
							t.Fatalf("step %d: Access after a false Hit = %+v, Access alone %+v", step, got, want)
						}
					}
					sameCache(t, step, withHit, accessOnly)
				}
			})
		}
	}
}
