package sim

import (
	"testing"
)

// TestMeasuredLoopAllocFree is the CI allocation gate: once a simulation has
// reached steady state (warm-up run, deferred substrate ops drained, every
// queue and timeline at its high-water capacity), continuing the measured
// loop must allocate nothing. This pins the zero-alloc hot path end to end —
// core stepping, trace generation, the L1/L2/LLC SoA tag paths, the
// devirtualized policy dispatch, MSHR/WB pools, arbiter and DRAM timelines,
// and the event-loop frontier — and fails on any regression (a per-step
// closure, a forgotten scratch slice, an append that outgrows its steady
// state).
func TestMeasuredLoopAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate runs the full mix; skipped in -short")
	}
	mix := []string{
		"calc", "mcf", "libq", "gcc",
		"lbm", "art", "eon", "gob",
	}
	cfg := quickConfig(len(mix))
	s := NewFromNames(cfg, mix)

	// Reach steady state: warm caches, learned policies, pools and
	// timelines grown to their high-water marks.
	s.Run(5_000, 20_000)

	target := uint64(0)
	for _, c := range s.cores {
		if r := c.Retired(); r > target {
			target = r
		}
	}
	const step = 2_000
	allocs := testing.AllocsPerRun(5, func() {
		target += step
		s.runUntilRetired(target, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("measured loop allocated %.1f times per %d-instruction window; want 0", allocs, step)
	}
}

// raceBuild is set in builds with the race detector (race_test.go).
var raceBuild bool

// TestConstructionAllocs pins how many allocations building a machine
// makes, exactly. Construction cost shows up in perf's setup_s, whose
// wall time moves with the Go scavenger's page-fault modes, and in the
// one-shot RunMix16 benchmark, whose allocs/op varies by a few between
// runs of one binary; neither shows a small regression. This count is
// deterministic. Machines: perf's mix16-balanced (16 cores, caches scaled
// 64x down) and mixA on the unscaled Table 3 machine, both TA-DRRIP.
func TestConstructionAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		names []string
		want  float64
	}{
		{"balanced16/x64", quickConfig(len(balanced16)), balanced16, 855},
		{"mixA/unscaled", DefaultConfig(4), []string{"calc", "mcf", "libq", "lbm"}, 271},
	} {
		cfg := tc.cfg
		cfg.LLCPolicy = "tadrrip"
		got := testing.AllocsPerRun(3, func() { NewFromNames(cfg, tc.names) })
		if got != tc.want {
			t.Errorf("%s: construction made %v allocations, pinned at %v. If the change is deliberate, re-pin the count here and say why in CHANGES.md",
				tc.name, got, tc.want)
		}
	}
}
