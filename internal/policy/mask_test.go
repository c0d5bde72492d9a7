package policy_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/rng"
)

// Engine-level masked-victim reference tests live in internal/cache with
// the Engine itself (cache/mask_test.go); this file keeps the end-to-end
// enforcement invariant that exercises real policies through the registry.

// TestCacheOccupancyHonoursMasks is the end-to-end enforcement invariant:
// with static way masks on a real cache, a core's fills may only ever land
// in its masked ways, so after any access schedule every valid line owned
// by core i sits in a way of mask_i. Hits are deliberately unrestricted —
// but since fills never cross the mask, ownership cannot either. Every
// registered policy runs, the ADAPT variants included.
func TestCacheOccupancyHonoursMasks(t *testing.T) {
	g := cache.Geometry{Sets: 16, Ways: 8, Cores: 2}
	masks := []uint64{0x07, 0xF8}
	for _, name := range policy.Names() {
		pol, err := policy.New(name, g, policy.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := cache.New(cache.Config{
			Name: "llc", Geometry: g, BlockBytes: 64, HitLatency: 1,
		}, pol)
		for core, m := range masks {
			c.SetWayMask(core, m)
		}
		src := rng.New(0xBEEF ^ uint64(len(name)))
		for step := 0; step < 30000; step++ {
			core := src.Intn(g.Cores)
			a := cache.Access{
				Block:  uint64(src.Intn(512)),
				Core:   core,
				PC:     uint64(src.Intn(64)),
				Demand: true,
				Write:  src.Intn(8) == 0,
			}
			c.Access(&a)
		}
		for set := 0; set < g.Sets; set++ {
			for way := 0; way < g.Ways; way++ {
				ln := c.LineAt(set, way)
				if !ln.Valid {
					continue
				}
				if masks[ln.Core]&(1<<uint(way)) == 0 {
					t.Fatalf("%s: line owned by core %d at way %d escapes mask %#x",
						name, ln.Core, way, masks[ln.Core])
				}
			}
		}
	}
}
