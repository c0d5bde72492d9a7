package sim

import (
	"testing"

	"repro/internal/cache"
)

// TestBatchInvariance is the acceptance test of the batch-invariant event
// loop: the same 4-core mix must produce a bit-identical Result — exact
// uint64/float64 equality, compared through the Result fingerprint — for
// every batch cap, including the adaptive default (0) and a cap far larger
// than any inter-core slack.
func TestBatchInvariance(t *testing.T) {
	cfg := quickConfig(4)
	names := []string{"calc", "mcf", "libq", "gcc"}
	run := func(maxBatch int) Result {
		s := NewFromNames(cfg, names)
		s.SetMaxBatch(maxBatch)
		return s.Run(10_000, 50_000)
	}
	want := run(1)
	wantFP := want.Fingerprint()
	for _, mb := range []int{8, 64, 1024, 0} {
		got := run(mb)
		if fp := got.Fingerprint(); fp != wantFP {
			for i := range want.Apps {
				if want.Apps[i] != got.Apps[i] {
					t.Errorf("maxBatch=%d: app %d diverged:\n  batch=1: %+v\n  batch=%d: %+v",
						mb, i, want.Apps[i], mb, got.Apps[i])
				}
			}
			t.Fatalf("maxBatch=%d: result fingerprint %s != %s (maxBatch=1)", mb, fp, wantFP)
		}
	}
}

// TestBatchInvarianceAcrossPolicies widens the net: batch caps 1 and 0
// (adaptive) must agree under policies with very different LLC mutation
// patterns, on a mix whose apps finish at different times (exercising the
// freeze-and-keep-running path).
func TestBatchInvarianceAcrossPolicies(t *testing.T) {
	names := []string{"eon", "lbm", "libq", "STRM"}
	for _, pol := range []string{"lru", "tadrrip", "adapt", "ship", "eaf"} {
		cfg := quickConfig(4)
		cfg.LLCPolicy = pol
		run := func(maxBatch int) string {
			s := NewFromNames(cfg, names)
			s.SetMaxBatch(maxBatch)
			return s.Run(5_000, 30_000).Fingerprint()
		}
		if a, b := run(1), run(0); a != b {
			t.Errorf("%s: adaptive batching diverges from single-step execution", pol)
		}
	}
}

// TestRunAheadMatchesInOrder checks the run-ahead event loop step for step:
// after Run, the adaptive loop (batch cap 0) must leave every core at the
// in-order reference's (SetMaxBatch(1)) clock, retired count and access
// count, and every L1, L2 and LLC line as the reference left it. A Result
// fingerprint cannot show a crossed core that ran one private step too
// many at the end of a run, since that step moves only the core and its L1
// after the core's window was recorded; this test can. It runs the mixes of
// the two batch-invariance tests and the balanced 16-core mix, detailed and
// sampled.
func TestRunAheadMatchesInOrder(t *testing.T) {
	type mix struct {
		name            string
		names           []string
		policy          string
		warmup, measure uint64
	}
	mixes := []mix{{"calc-mcf-libq-gcc", []string{"calc", "mcf", "libq", "gcc"}, "tadrrip", 10_000, 50_000}}
	for _, pol := range []string{"lru", "tadrrip", "adapt", "ship", "eaf"} {
		mixes = append(mixes, mix{"eon-lbm-libq-STRM/" + pol, []string{"eon", "lbm", "libq", "STRM"}, pol, 5_000, 30_000})
	}
	mixes = append(mixes, mix{"balanced16", balanced16, "tadrrip", 5_000, 20_000})
	for _, m := range mixes {
		for _, sampled := range []bool{false, true} {
			m, sampled := m, sampled
			name := m.name + "/detailed"
			if sampled {
				name = m.name + "/sampled"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := quickConfig(len(m.names))
				cfg.LLCPolicy = m.policy
				if sampled {
					cfg.Sample = SampleConfig{Windows: 8}
				}
				run := func(maxBatch int) *System {
					s := NewFromNames(cfg, m.names)
					s.SetMaxBatch(maxBatch)
					s.Run(m.warmup, m.measure)
					return s
				}
				sameMachine(t, run(1), run(0))
			})
		}
	}
}

// balanced16 is the balanced 16-core mix of BenchmarkRunMix16 and of the
// perf benchmark's mix16-balanced workload.
var balanced16 = []string{
	"calc", "mcf", "libq", "gcc", "lbm", "art", "eon", "gob",
	"milc", "mesa", "STRM", "calc", "mcf", "libq", "gcc", "lbm",
}

// sameMachine fails t unless got's cores and caches are in want's state:
// every core's clock, retired and access counts, and every line of every
// L1, L2 and the LLC.
func sameMachine(t *testing.T, want, got *System) {
	t.Helper()
	for i, c := range got.cores {
		w := want.cores[i]
		if c.Clock() != w.Clock() || c.Retired() != w.Retired() || c.MemAccesses() != w.MemAccesses() {
			t.Fatalf("core %d: clock %d, retired %d, accesses %d; in-order reference: %d, %d, %d",
				i, c.Clock(), c.Retired(), c.MemAccesses(), w.Clock(), w.Retired(), w.MemAccesses())
		}
	}
	caches := func(s *System) []*cache.Cache {
		cs := []*cache.Cache{s.sub.llc}
		for _, p := range s.paths {
			cs = append(cs, p.l1, p.l2)
		}
		return cs
	}
	wantCaches := caches(want)
	for k, gc := range caches(got) {
		wc := wantCaches[k]
		g := gc.Config().Geometry
		for set := 0; set < g.Sets; set++ {
			for way := 0; way < g.Ways; way++ {
				if gl, wl := gc.LineAt(set, way), wc.LineAt(set, way); gl != wl {
					t.Fatalf("%s set %d way %d: %+v; in-order reference: %+v", gc.Config().Name, set, way, gl, wl)
				}
			}
		}
	}
}

// TestResultFingerprintDistinguishes guards the comparison tool itself: the
// fingerprint must differ when results differ.
func TestResultFingerprintDistinguishes(t *testing.T) {
	a := Result{Apps: []AppResult{{Instructions: 1, IPC: 1.5}}}
	b := Result{Apps: []AppResult{{Instructions: 1, IPC: 1.5000001}}}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint blind to float changes")
	}
}
