package sim

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// quickConfig is a small machine for fast tests: 256KB LLC, 4KB L2, 512B L1.
func quickConfig(cores int) Config {
	return Scale(DefaultConfig(cores), 64)
}

func TestDefaultConfigMatchesTable3(t *testing.T) {
	c := DefaultConfig(16)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.L1Sets*c.L1Ways*c.BlockBytes != 32<<10 {
		t.Fatal("L1 is not 32KB")
	}
	if c.L2Sets*c.L2Ways*c.BlockBytes != 256<<10 {
		t.Fatal("L2 is not 256KB")
	}
	if c.LLCSets*c.LLCWays*c.BlockBytes != 16<<20 {
		t.Fatal("LLC is not 16MB")
	}
	if c.LLCPolicy != "tadrrip" || c.L2Policy != "drrip" {
		t.Fatal("default policies are not Table 3's")
	}
	if c.Mem.RowHitLatency != 180 || c.Mem.RowConflictLatency != 340 {
		t.Fatal("memory latencies are not Table 3's")
	}
	if c.Arb.Banks != 4 {
		t.Fatal("LLC should have 4 banks")
	}
}

func TestScalePreservesAssociativityAndLatency(t *testing.T) {
	c := Scale(DefaultConfig(8), 8)
	if c.LLCWays != 16 || c.L2Ways != 16 || c.L1Ways != 8 {
		t.Fatal("Scale changed associativity")
	}
	if c.LLCSets != 2048 || c.L2Sets != 32 || c.L1Sets != 8 {
		t.Fatalf("Scale sets wrong: llc=%d l2=%d l1=%d", c.LLCSets, c.L2Sets, c.L1Sets)
	}
	if c.LLCLatency != 24 {
		t.Fatal("Scale changed latency")
	}
	if got := Scale(DefaultConfig(8), 1); got.LLCSets != 16384 {
		t.Fatal("Scale(1) should be identity")
	}
}

func TestNewValidatesInputs(t *testing.T) {
	cfg := quickConfig(1)
	cfg.CPUWidth = 3
	if err := cfg.Validate(); err == nil {
		t.Error("a core width that is not a power of two validated")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched generator count did not panic")
			}
		}()
		New(quickConfig(2), []trace.Generator{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad policy name did not panic")
			}
		}()
		cfg := quickConfig(1)
		cfg.LLCPolicy = "bogus"
		NewFromNames(cfg, []string{"calc"})
	}()
}

func TestSoloRunProducesSaneIPC(t *testing.T) {
	cfg := quickConfig(1)
	s := NewFromNames(cfg, []string{"calc"})
	res := s.Run(20_000, 100_000)
	app := res.Apps[0]
	if app.Instructions < 100_000 {
		t.Fatalf("instructions = %d, want >= 100000", app.Instructions)
	}
	// calc is compute bound (MPKI 0.05): IPC should be near the width.
	if app.IPC < 2.0 || app.IPC > 4.0 {
		t.Fatalf("calc IPC = %.3f, want close to 4", app.IPC)
	}
	if app.L2MPKI > 2 {
		t.Fatalf("calc L2-MPKI = %.2f, want tiny", app.L2MPKI)
	}
}

func TestMemoryBoundAppSlower(t *testing.T) {
	cfg := quickConfig(1)
	run := func(name string) float64 {
		s := NewFromNames(cfg, []string{name})
		return s.Run(20_000, 100_000).Apps[0].IPC
	}
	calc, lbm := run("calc"), run("lbm")
	if lbm >= calc {
		t.Fatalf("lbm IPC %.3f >= calc IPC %.3f; memory intensity has no effect", lbm, calc)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := quickConfig(4)
	names := []string{"calc", "mcf", "libq", "gcc"}
	a := NewFromNames(cfg, names).Run(10_000, 50_000)
	b := NewFromNames(cfg, names).Run(10_000, 50_000)
	for i := range a.Apps {
		if a.Apps[i] != b.Apps[i] {
			t.Fatalf("run not deterministic for app %d: %+v vs %+v", i, a.Apps[i], b.Apps[i])
		}
	}
}

func TestThrasherIntensityShowsInL2MPKI(t *testing.T) {
	cfg := quickConfig(1)
	s := NewFromNames(cfg, []string{"libq"}) // target L2-MPKI 15.11
	res := s.Run(20_000, 200_000)
	mpki := res.Apps[0].L2MPKI
	if mpki < 5 || mpki > 40 {
		t.Fatalf("libq L2-MPKI = %.2f, want in the paper's intensity band (~15)", mpki)
	}
}

func TestSharedCacheInterferenceHurts(t *testing.T) {
	cfg := quickConfig(1)
	solo := NewFromNames(cfg, []string{"mcf"}).Run(10_000, 80_000).Apps[0].IPC

	cfg4 := quickConfig(4)
	shared := NewFromNames(cfg4, []string{"mcf", "lbm", "libq", "milc"}).Run(10_000, 80_000).Apps[0].IPC
	if shared >= solo {
		t.Fatalf("mcf shared IPC %.3f >= solo %.3f; no interference modelled", shared, solo)
	}
}

func TestRunWithAllPolicies(t *testing.T) {
	names := []string{"gcc", "libq"}
	for _, pol := range []string{"lru", "srrip", "brrip", "drrip", "tadrrip", "tadrrip-bp", "ship", "ship-bp", "eaf", "eaf-bp", "adapt", "adapt-ins"} {
		cfg := quickConfig(2)
		cfg.LLCPolicy = pol
		res := NewFromNames(cfg, names).Run(5_000, 30_000)
		for i, app := range res.Apps {
			if app.IPC <= 0 || app.IPC > float64(cfg.CPUWidth) {
				t.Fatalf("%s: app %d IPC = %v out of range", pol, i, app.IPC)
			}
		}
	}
}

func TestObserveLLCSeesDemandAccesses(t *testing.T) {
	s := NewFromNames(quickConfig(1), []string{"libq"})
	var observed uint64
	s.ObserveLLC(func(core, set int, block uint64) {
		if core != 0 {
			t.Errorf("observer saw core %d on a 1-core system", core)
		}
		observed++
	})
	res := s.Run(0, 50_000)
	total := res.Apps[0].LLCDemandAccesses
	if observed == 0 {
		t.Fatal("observer never fired")
	}
	// The observer fires on every demand LLC access including warm-up, but
	// with warmup=0 the counts must match exactly.
	if observed != total {
		t.Fatalf("observer fired %d times, LLC demand accesses = %d", observed, total)
	}
}

func TestFreezePreservesContention(t *testing.T) {
	// A light app finishes its instruction quota long before a heavy one;
	// both must report IPC and the run must terminate.
	cfg := quickConfig(2)
	res := NewFromNames(cfg, []string{"eon", "lbm"}).Run(5_000, 50_000)
	for i, app := range res.Apps {
		if app.Instructions < 50_000 {
			t.Fatalf("app %d retired only %d", i, app.Instructions)
		}
		if app.IPC <= 0 {
			t.Fatalf("app %d IPC = %v", i, app.IPC)
		}
	}
}

func TestWritebacksReachDRAM(t *testing.T) {
	cfg := quickConfig(1)
	s := NewFromNames(cfg, []string{"lbm"}) // 40% writes, streaming
	s.Run(0, 100_000)
	if s.DRAM().Stats().Writes == 0 {
		t.Fatal("no write-backs reached DRAM for a write-heavy stream")
	}
}

func TestNextLinePrefetchHelpsStreams(t *testing.T) {
	base := quickConfig(1)
	with := NewFromNames(base, []string{"STRM"}).Run(5_000, 60_000).Apps[0].IPC
	noPf := base
	noPf.NextLinePrefetch = false
	without := NewFromNames(noPf, []string{"STRM"}).Run(5_000, 60_000).Apps[0].IPC
	if with <= without {
		t.Fatalf("next-line prefetch did not help a pure stream: %.3f <= %.3f", with, without)
	}
}

func TestAdaptClassifiesUnderRealTraffic(t *testing.T) {
	cfg := quickConfig(4)
	cfg.LLCPolicy = "adapt"
	cfg.PolicyOpt.AdaptIntervalMisses = 1_000
	s := NewFromNames(cfg, []string{"libq", "calc", "mcf", "STRM"})
	s.Run(0, 200_000)
	ad := adaptOf(t, s)
	if ad.Intervals() == 0 {
		t.Fatal("no monitoring interval completed")
	}
	// libq (thrashing) must have a larger footprint-number than calc.
	if ad.FootprintNumber(0) <= ad.FootprintNumber(1) {
		t.Fatalf("libq fpn %.2f <= calc fpn %.2f", ad.FootprintNumber(0), ad.FootprintNumber(1))
	}
}

func TestMixRunsEndToEnd(t *testing.T) {
	cfg := quickConfig(8)
	names := []string{"calc", "gcc", "art", "libq", "lbm", "mcf", "eon", "gob"}
	res := NewFromNames(cfg, names).Run(5_000, 30_000)
	if len(res.IPCs()) != 8 {
		t.Fatal("wrong IPC vector length")
	}
	if res.DRAMRowHitRate < 0 || res.DRAMRowHitRate > 1 {
		t.Fatalf("row hit rate %v out of range", res.DRAMRowHitRate)
	}
}

func TestArbiterMeanWaitPopulated(t *testing.T) {
	// Eight memory-intensive apps hammering 4 LLC banks must queue at the
	// arbiter; the per-app diagnostic has to reflect it.
	cfg := quickConfig(8)
	names := []string{"libq", "lbm", "mcf", "milc", "libq", "lbm", "mcf", "milc"}
	res := NewFromNames(cfg, names).Run(5_000, 40_000)
	var total float64
	for i, app := range res.Apps {
		if app.ArbiterMeanWait < 0 {
			t.Fatalf("app %d negative arbiter wait %v", i, app.ArbiterMeanWait)
		}
		total += app.ArbiterMeanWait
	}
	if total == 0 {
		t.Fatal("ArbiterMeanWait zero for every app of a bank-contended mix; field not populated")
	}
}

func TestBenchGeometryWiring(t *testing.T) {
	cfg := quickConfig(2)
	// NewFromSpecs must hand the spec the machine's LLC geometry; gob's
	// cyclic working set is then Fpn x LLCSets.
	specs := []bench.Spec{bench.MustByName("gob"), bench.MustByName("calc")}
	s := NewFromSpecs(cfg, specs)
	if s.LLC().Config().Geometry.Sets != cfg.LLCSets {
		t.Fatal("LLC geometry mismatch")
	}
}
