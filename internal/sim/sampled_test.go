package sim

import (
	"math"
	"testing"
)

// sampledConfig is the canonical sampled-fidelity machine of the sampled
// golden corpus: the detailed goldenConfig plus an 8-window sampling axis.
// Window geometry is left at the budget-derived defaults so the corpus also
// pins the default derivation (period/8 detail, detail/2 warm).
func sampledConfig(cores int, policy string) Config {
	cfg := goldenConfig(cores, policy)
	cfg.Sample = SampleConfig{Windows: 8}
	return cfg
}

// sampledClusterConfig adds the LFOC clustering layer — the hardest shared
// state for functional-warming determinism, since cluster epochs advance on
// (globally ordered) demand observations from both execution modes.
func sampledClusterConfig(cores int, policy string) Config {
	cfg := clusterTestConfig(cores, policy)
	cfg.Sample = SampleConfig{Windows: 8}
	return cfg
}

// Sampled golden-fingerprint corpus: Result.Fingerprint locked for sampled-
// fidelity runs of the detailed corpus's two mixes. Same maintenance
// contract as goldenFingerprints: an intentional semantic change re-pins
// these digests and bumps schedule.KeySchema in the same commit.
var sampledGoldenFingerprints = []struct {
	name    string
	names   []string
	policy  string
	cluster bool
	want    string
}{
	{"mixA/tadrrip", []string{"calc", "mcf", "libq", "lbm"}, "tadrrip", false,
		"64d5552b852d2f79bdbb53562fde6762505f0f18487e37c73fa1247f43d024c7"},
	{"mixA/adapt", []string{"calc", "mcf", "libq", "lbm"}, "adapt", false,
		"15a73ae30688f85042df7ab91311997501b45b617f547ccfc5d4c2b04d1c5247"},
	{"mixA/lru", []string{"calc", "mcf", "libq", "lbm"}, "lru", false,
		"cb1273c83aa643254f915443eb69aa4b26559260b484e3e00dedafb9d9b7ab46"},
	{"mixB/ship", []string{"art", "gcc", "STRM", "milc"}, "ship", false,
		"4a319a5e9e9546e3279fcb79b9f442d8a5310ac26b00b9cc8ccc1e911509c707"},
	{"mixB/cluster", []string{"art", "gcc", "STRM", "milc"}, "tadrrip", true,
		"d78caba68ee59c8dce23374dfa33fb3b9599118838805fe72b1593679b450b4b"},
	{"mix16stream/adapt", streaming16, "adapt", false,
		"143834379586a7319a212fa4bb39eb32713a71ea7461974efe45cd00bbe1cd3f"},
}

func sampledCorpusConfig(tc struct {
	name    string
	names   []string
	policy  string
	cluster bool
	want    string
}) Config {
	if tc.cluster {
		return sampledClusterConfig(len(tc.names), tc.policy)
	}
	return sampledConfig(len(tc.names), tc.policy)
}

func TestSampledGoldenFingerprints(t *testing.T) {
	for _, tc := range sampledGoldenFingerprints {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res := NewFromNames(sampledCorpusConfig(tc), tc.names).Run(20_000, 80_000)
			if got := res.Fingerprint(); got != tc.want {
				t.Errorf("sampled golden mismatch for %s:\n got  %s\n want %s", tc.name, got, tc.want)
			}
		})
	}
}

// TestSampledInvariance pins the sampled mode's determinism claim: sampled
// results are bit-identical whether cores refill through NextBatch or
// scalar Next, and across event-loop batch caps — the functional phases
// are scheduled by retired-instruction counts alone, and the detailed
// windows inherit the engine's existing invariances.
func TestSampledInvariance(t *testing.T) {
	for _, tc := range sampledGoldenFingerprints {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ref := NewFromNames(sampledCorpusConfig(tc), tc.names).Run(20_000, 80_000).Fingerprint()
			for _, leg := range []struct {
				label    string
				build    func(Config, []string) *System
				maxBatch int
			}{
				{"scalar", newScalar, 0},
				{"maxbatch7", NewFromNames, 7},
				{"scalar-maxbatch3", newScalar, 3},
			} {
				s := leg.build(sampledCorpusConfig(tc), tc.names)
				s.SetMaxBatch(leg.maxBatch)
				if got := s.Run(20_000, 80_000).Fingerprint(); got != ref {
					t.Errorf("%s: sampled result depends on execution knobs:\n got  %s\n want %s", leg.label, got, ref)
				}
			}
		})
	}
}

// TestSampledEstimate checks the estimator's bookkeeping: the window count
// is surfaced, confidence fields are finite and non-negative, the summed
// measured instructions cover roughly windows×detail per app, and IPC is
// consistent with the per-window samples it averages.
func TestSampledEstimate(t *testing.T) {
	names := []string{"calc", "mcf", "libq", "lbm"}
	cfg := sampledConfig(len(names), "tadrrip")
	cfg.Sample = SampleConfig{Windows: 5, DetailInstr: 2_000, WarmInstr: 1_000}
	res := NewFromNames(cfg, names).Run(20_000, 80_000)
	for i, app := range res.Apps {
		if app.Sampled.Windows != 5 {
			t.Fatalf("app %d: Sampled.Windows = %d, want 5", i, app.Sampled.Windows)
		}
		if app.IPC <= 0 {
			t.Errorf("app %d: sampled IPC = %v, want > 0", i, app.IPC)
		}
		for _, v := range []float64{app.Sampled.IPCCI, app.Sampled.IPCCV, app.Sampled.L2MPKICI, app.Sampled.LLCMPKICI} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("app %d: bad confidence value %v in %+v", i, v, app.Sampled)
			}
		}
		// At least ≈ 5 windows × 2000 detail instructions. The upper side is
		// deliberately loose: contention preservation keeps fast cores
		// stepping past their window targets until the slowest core crosses,
		// so a fast app's measured span is its overshoot span — it can even
		// exceed the nominal measure budget on heavily skewed mixes.
		if app.Instructions < 9_000 || app.Instructions > 2*80_000 {
			t.Errorf("app %d: measured %d instructions, want ≥ ≈10000 (5 windows × 2000) and < 2× the measure budget", i, app.Instructions)
		}
		if app.Cycles == 0 {
			t.Errorf("app %d: zero measured cycles", i)
		}
	}
}

// TestDetailedRunHasZeroEstimate pins the field separation: fully-detailed
// runs leave AppResult.Sampled at its zero value, and the digest exclusion
// means a Result differing only in Sampled fingerprints identically (the
// guarantee that kept the pre-sampling golden corpus byte-identical).
func TestDetailedRunHasZeroEstimate(t *testing.T) {
	names := []string{"calc", "mcf"}
	res := NewFromNames(goldenConfig(len(names), "tadrrip"), names).Run(5_000, 20_000)
	for i, app := range res.Apps {
		if app.Sampled != (SampleEstimate{}) {
			t.Errorf("app %d: detailed run produced sample estimate %+v", i, app.Sampled)
		}
	}

	a, b := res, res
	b.Apps = append([]AppResult(nil), res.Apps...)
	b.Apps[0].Sampled = SampleEstimate{Windows: 9, IPCCI: 0.5}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("Result fingerprint depends on AppResult.Sampled; the pre-sampling golden corpus would have moved")
	}
}

// TestSampledAccuracy bounds the estimator error against the fully-detailed
// reference at tiny fidelity. Tiny budgets are the estimator's worst case —
// a handful of short windows over a short run — so the bound here is loose;
// the paper-budget error table lives in EXPERIMENTS.md and the
// BenchmarkSamplingFidelity artifact tracks it in CI.
func TestSampledAccuracy(t *testing.T) {
	names := []string{"calc", "mcf", "libq", "lbm"}
	detailed := NewFromNames(goldenConfig(len(names), "tadrrip"), names).Run(20_000, 80_000)
	sampled := NewFromNames(sampledConfig(len(names), "tadrrip"), names).Run(20_000, 80_000)

	var sumAbs float64
	for i := range detailed.Apps {
		d, s := detailed.Apps[i].IPC, sampled.Apps[i].IPC
		if d <= 0 || s <= 0 {
			t.Fatalf("app %d: non-positive IPC (detailed %v, sampled %v)", i, d, s)
		}
		err := math.Abs(s-d) / d
		sumAbs += err
		if err > 0.25 {
			t.Errorf("app %d: sampled IPC %v vs detailed %v — %.1f%% error exceeds the 25%% tiny-fidelity bound", i, s, d, 100*err)
		}
	}
	if mean := sumAbs / float64(len(detailed.Apps)); mean > 0.12 {
		t.Errorf("mean |IPC error| %.1f%% exceeds the 12%% tiny-fidelity bound", 100*mean)
	}
}

// TestSamplePlanFeasibility pins plan's loud-failure contract for window
// layouts that cannot fit their period.
func TestSamplePlanFeasibility(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("infeasible sample plan did not panic")
		}
	}()
	SampleConfig{Windows: 4, DetailInstr: 900, WarmInstr: 200}.plan(4_000) // period 1000 < 1100
}

// TestDetailedRunWithoutMeasureBudget: a detailed config's one-window plan
// over a zero measured budget measures nothing; it must not reach the
// sampled geometry checks, which reject windows without an instruction.
func TestDetailedRunWithoutMeasureBudget(t *testing.T) {
	names := []string{"calc", "mcf"}
	res := NewFromNames(goldenConfig(len(names), "tadrrip"), names).Run(5_000, 0)
	for i, app := range res.Apps {
		if app.Instructions != 0 || app.Cycles != 0 || app.IPC != 0 {
			t.Errorf("app %d: zero-budget run measured %+v", i, app)
		}
	}
}

// TestSampleAxisInConfigFingerprint pins the cache-keying rule: the sampling
// axis is part of the Config digest, so a sampled run can never share a
// memoized result with the detailed run it approximates (or with a sampled
// run of different window geometry).
func TestSampleAxisInConfigFingerprint(t *testing.T) {
	base := goldenConfig(4, "tadrrip")
	sampled := base
	sampled.Sample = SampleConfig{Windows: 8}
	if base.Fingerprint() == sampled.Fingerprint() {
		t.Error("enabling sampling did not change the Config fingerprint; sampled runs would alias detailed cache entries")
	}
	other := sampled
	other.Sample.DetailInstr = 4_096
	if other.Fingerprint() == sampled.Fingerprint() {
		t.Error("changing window geometry did not change the Config fingerprint")
	}
}
