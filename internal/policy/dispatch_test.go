// Differential dispatch tests: the cache's devirtualized fast path
// (HotProfile flags captured at construction) must make bit-identical
// decisions to the retained reference implementation (pure
// ReplacementPolicy interface dispatch, selected with
// SetReferenceDispatch). Every registered policy — including the ADAPT
// variants registered by internal/core — is driven over randomized access
// streams in both modes, with and without way masks, and every per-access
// Result, every line of final cache state, and every statistics counter
// must match. A policy whose Hot() profile over-claims (a flag promising
// Engine behaviour its callback doesn't have) fails here on the first
// diverging access.
//
// The test lives in package policy_test so it can import internal/core
// (which itself imports policy to register "adapt"/"adapt-ins").
package policy_test

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	_ "repro/internal/core" // registers the "adapt" and "adapt-ins" policies
	"repro/internal/policy"
	"repro/internal/rng"
)

// dispatchGeom is deliberately small: few sets mean constant evictions,
// aging and (for the samplers) dense training coverage.
var dispatchGeom = cache.Geometry{Sets: 64, Ways: 8, Cores: 4}

// newDispatchCache builds one cache running the named policy. Both cache
// and policy are fresh per call with a fixed seed, so two calls yield
// independent but identically-behaving instances.
func newDispatchCache(t *testing.T, name string) *cache.Cache {
	t.Helper()
	pol, err := policy.New(name, dispatchGeom, policy.Options{Seed: 0xD15FA7C4})
	if err != nil {
		t.Fatalf("policy.New(%q): %v", name, err)
	}
	return cache.New(cache.Config{
		Name:       "llc-" + name,
		Geometry:   dispatchGeom,
		BlockBytes: 64,
		HitLatency: 30,
	}, pol)
}

// driveStream applies n pseudo-random accesses to both caches and fails on
// the first access whose Result differs. The stream mixes demand reads and
// writes, prefetch fills and writebacks across all cores, drawn from an
// address range about three times the cache capacity so hits, misses,
// evictions and (for the bypass policies) fill decisions all occur. When
// masks is true, per-core way masks partition the cache halfway through,
// exercising the masked victim path on both sides.
func driveStream(t *testing.T, name string, fast, ref *cache.Cache, masks bool, n int) {
	t.Helper()
	src := rng.New(0xBEEF0000 + uint64(len(name)))
	blocks := uint64(dispatchGeom.Sets * dispatchGeom.Ways * 3)
	for i := 0; i < n; i++ {
		if masks && i == n/2 {
			for c := 0; c < dispatchGeom.Cores; c++ {
				mask := uint64(0b11) << uint(2*c) // disjoint 2-way partitions
				fast.SetWayMask(c, mask)
				ref.SetWayMask(c, mask)
			}
		}
		a := cache.Access{
			Block: src.Uint64n(blocks),
			Core:  int(src.Uint64n(uint64(dispatchGeom.Cores))),
			PC:    0x400000 + src.Uint64n(512)<<2,
		}
		switch k := src.Uint64n(100); {
		case k < 55: // demand read
			a.Demand = true
		case k < 70: // demand write
			a.Demand, a.Write = true, true
		case k < 85: // prefetch fill
		default: // dirty victim writeback from a private level
			a.Write, a.Writeback = true, true
		}
		af, ar := a, a
		rf := fast.Access(&af)
		rr := ref.Access(&ar)
		if rf != rr {
			t.Fatalf("%s: access %d (block %#x core %d demand=%v write=%v wb=%v): fast=%+v ref=%+v",
				name, i, a.Block, a.Core, a.Demand, a.Write, a.Writeback, rf, rr)
		}
	}
}

// compareFinalState checks the caches line by line and counter by counter.
func compareFinalState(t *testing.T, name string, fast, ref *cache.Cache) {
	t.Helper()
	for set := 0; set < dispatchGeom.Sets; set++ {
		for way := 0; way < dispatchGeom.Ways; way++ {
			lf, lr := fast.LineAt(set, way), ref.LineAt(set, way)
			if lf != lr {
				t.Fatalf("%s: final line state diverged at set %d way %d: fast=%+v ref=%+v",
					name, set, way, lf, lr)
			}
		}
	}
	if !reflect.DeepEqual(*fast.Stats(), *ref.Stats()) {
		t.Fatalf("%s: final statistics diverged:\nfast: %+v\nref:  %+v",
			name, *fast.Stats(), *ref.Stats())
	}
}

// TestDispatchEquivalence pins fast-vs-reference equality for every
// registered policy, unmasked and masked.
func TestDispatchEquivalence(t *testing.T) {
	const accesses = 30_000
	for _, name := range policy.Names() {
		for _, masked := range []bool{false, true} {
			label := name + "/unmasked"
			if masked {
				label = name + "/masked"
			}
			t.Run(label, func(t *testing.T) {
				fast := newDispatchCache(t, name)
				ref := newDispatchCache(t, name)
				ref.SetReferenceDispatch(true)
				driveStream(t, name, fast, ref, masked, accesses)
				compareFinalState(t, name, fast, ref)
			})
		}
	}
}

// TestReferenceDispatchToggle makes sure SetReferenceDispatch is a real
// toggle: switching the fast cache to reference mode mid-stream and back
// must not change decisions either (the two paths share all state). It runs
// the two full hot profiles: srrip exercises every RRIP flag, lru the LRU
// engine's hit, victim and fill.
func TestReferenceDispatchToggle(t *testing.T) {
	const accesses = 12_000
	for _, name := range []string{"srrip", "lru"} {
		t.Run(name, func(t *testing.T) {
			fast := newDispatchCache(t, name)
			ref := newDispatchCache(t, name)
			ref.SetReferenceDispatch(true)
			src := rng.New(0x70661E)
			blocks := uint64(dispatchGeom.Sets * dispatchGeom.Ways * 3)
			for i := 0; i < accesses; i++ {
				if i%1000 == 0 {
					fast.SetReferenceDispatch(i%2000 == 0)
				}
				a := cache.Access{
					Block:  src.Uint64n(blocks),
					Core:   int(src.Uint64n(uint64(dispatchGeom.Cores))),
					PC:     0x400000 + src.Uint64n(512)<<2,
					Demand: true,
				}
				af, ar := a, a
				if rf, rr := fast.Access(&af), ref.Access(&ar); rf != rr {
					t.Fatalf("access %d: fast=%+v ref=%+v", i, rf, rr)
				}
			}
			compareFinalState(t, name, fast, ref)
		})
	}
}
