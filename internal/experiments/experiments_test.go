package experiments

import (
	"strings"
	"testing"

	"repro/internal/schedule"
	"repro/internal/workload"
)

// tinyOpt is even smaller than Tiny() for unit tests.
func tinyOpt() Options {
	return Options{
		Scale:        64,
		MaxWorkloads: 2,
		WarmupInstr:  20_000,
		MeasureInstr: 60_000,
		Seed:         42,
		Parallelism:  2,
	}
}

func TestOptionsPresets(t *testing.T) {
	if p := Paper(); p.Scale != 1 || p.MaxWorkloads != 0 {
		t.Fatal("Paper() should be full fidelity")
	}
	if ti := Tiny(); ti.MaxWorkloads == 0 {
		t.Fatal("Tiny() should cap workloads")
	}
}

func TestBaseConfigAppliesOptions(t *testing.T) {
	opt := tinyOpt()
	cfg := opt.baseConfig(16)
	if cfg.LLCSets != 16384/64 {
		t.Fatalf("scale not applied: %d sets", cfg.LLCSets)
	}
	if cfg.PolicyOpt.AdaptIntervalMisses != 0 {
		t.Fatal("interval should default to the policy's own rule")
	}
}

func TestMixesCapped(t *testing.T) {
	opt := tinyOpt()
	study, _ := workload.StudyByCores(16)
	if got := len(opt.mixes(study)); got != 2 {
		t.Fatalf("mixes = %d, want 2", got)
	}
	opt.MaxWorkloads = 0
	if got := len(opt.mixes(study)); got != 60 {
		t.Fatalf("uncapped mixes = %d, want 60", got)
	}
}

func TestRunStudyShapes(t *testing.T) {
	opt := tinyOpt()
	r := NewRunner(opt)
	study, _ := workload.StudyByCores(4)
	runs := r.RunStudy(study, []PolicySpec{Baseline, {Key: "LRU", Policy: "lru"}})
	if len(runs.Mixes) != 2 {
		t.Fatalf("mixes = %d", len(runs.Mixes))
	}
	for key, mrs := range runs.ByPolicy {
		if len(mrs) != 2 {
			t.Fatalf("%s has %d runs", key, len(mrs))
		}
		for _, mr := range mrs {
			if len(mr.Result.Apps) != 4 {
				t.Fatalf("%s run has %d apps", key, len(mr.Result.Apps))
			}
		}
	}
	for _, m := range runs.Mixes {
		for _, n := range m.Names {
			if runs.Alone[n] <= 0 {
				t.Fatalf("no solo IPC for %s", n)
			}
		}
	}
	speedups := runs.SpeedupsOver(Baseline.Key, "LRU")
	if len(speedups) != 2 {
		t.Fatal("wrong speedup vector length")
	}
	for _, s := range speedups {
		if s <= 0 || s > 3 {
			t.Fatalf("implausible speedup %v", s)
		}
	}
}

func TestAloneIPCCached(t *testing.T) {
	r := NewRunner(tinyOpt())
	a := r.AloneIPC("calc")
	b := r.AloneIPC("calc")
	if a != b {
		t.Fatal("cached solo IPC differs")
	}
	if a <= 0 || a > 4 {
		t.Fatalf("calc solo IPC = %v", a)
	}
}

// TestCrossHarnessDedup is the scheduler's reason to exist: two harnesses
// (modelled as two Runners sharing one scheduler) running overlapping study
// grids must share simulations instead of recomputing them — the second
// grid is answered entirely from cache, and the shared-policy runs agree
// exactly.
func TestCrossHarnessDedup(t *testing.T) {
	sched := schedule.New(2)
	opt := tinyOpt()
	study, _ := workload.StudyByCores(4)

	r1 := NewRunnerWith(opt, sched)
	first := r1.RunStudy(study, []PolicySpec{Baseline, {Key: "LRU", Policy: "lru"}})
	afterFirst := sched.Stats()
	if afterFirst.Hits() == 0 {
		// Even one harness has internal reuse (solo IPCs repeat across
		// mixes), but don't insist on it; the cross-harness check below is
		// the contract.
		t.Log("no intra-harness hits at this grid size")
	}

	// Second harness: same baseline grid plus a new policy. Only the new
	// policy's runs should execute.
	r2 := NewRunnerWith(opt, sched)
	second := r2.RunStudy(study, []PolicySpec{Baseline, {Key: "SHiP", Policy: "ship"}})
	st := sched.Stats()
	if hits := st.Hits() - afterFirst.Hits(); hits == 0 {
		t.Fatalf("no cache hits when harnesses share a grid: %+v", st)
	}
	newRuns := st.Executed - afterFirst.Executed
	if want := uint64(len(second.Mixes)); newRuns != want {
		t.Fatalf("second harness executed %d simulations, want %d (SHiP only); stats %+v",
			newRuns, want, st)
	}
	for i := range first.Mixes {
		a := first.ByPolicy[Baseline.Key][i].Result
		b := second.ByPolicy[Baseline.Key][i].Result
		for core := range a.Apps {
			if a.Apps[core] != b.Apps[core] {
				t.Fatalf("mix %d core %d: deduped baseline result differs", i, core)
			}
		}
	}
}

// TestRunnerSharedSchedulerDefault pins that NewRunner wires harnesses to
// the process-wide scheduler (the cross-harness reuse path of cmd/paperfig
// and the test binary itself).
func TestRunnerSharedSchedulerDefault(t *testing.T) {
	if NewRunner(tinyOpt()).Scheduler() != schedule.Shared() {
		t.Fatal("NewRunner did not use the shared scheduler")
	}
}

func TestTable2Static(t *testing.T) {
	rows := Table2()
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	byName := map[string]StorageRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	if byName["TA-DRRIP"].TotalBits/8 != 48 {
		t.Fatalf("TA-DRRIP = %d bytes, want the paper's 48", byName["TA-DRRIP"].TotalBits/8)
	}
	if byName["EAF-RRIP"].TotalBits/8 != 256<<10 {
		t.Fatalf("EAF = %d bytes, want 256KB", byName["EAF-RRIP"].TotalBits/8)
	}
	// ADAPT: ~1KB per app x 24 apps, far below EAF/SHiP.
	adaptBytes := byName["ADAPT"].TotalBits / 8
	if adaptBytes < 20<<10 || adaptBytes > 30<<10 {
		t.Fatalf("ADAPT = %d bytes, want ~24KB", adaptBytes)
	}
	if byName["SHiP"].TotalBits <= byName["ADAPT"].TotalBits {
		t.Fatal("SHiP should cost more than ADAPT (the paper's Table 2 ordering)")
	}
	tbl := Table2Table()
	if !strings.Contains(tbl.String(), "ADAPT") {
		t.Fatal("rendered table missing ADAPT row")
	}
}

func TestFig1TinySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	res := Fig1(tinyOpt())
	if res.SpeedupForced <= 0 || res.SpeedupSD128 <= 0 {
		t.Fatal("speedups not computed")
	}
	a, b, c := res.TableA(), res.TableB(), res.TableC()
	if len(a.Rows) != 3 || len(b.Rows) == 0 || len(c.Rows) == 0 {
		t.Fatalf("table shapes wrong: %d/%d/%d", len(a.Rows), len(b.Rows), len(c.Rows))
	}
}

func TestFig3TinySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	res := Fig3(tinyOpt())
	for _, key := range []string{"ADAPT_bp32", "LRU", "SHiP", "EAF", "ADAPT_ins"} {
		curve, ok := res.Curves[key]
		if !ok || len(curve) != 2 {
			t.Fatalf("missing curve for %s", key)
		}
		for i := 1; i < len(curve); i++ {
			if curve[i-1] > curve[i] {
				t.Fatalf("%s curve not sorted", key)
			}
		}
	}
	fig4, fig5 := res.Fig45Tables()
	if len(fig4.Rows) == 0 || len(fig5.Rows) == 0 {
		t.Fatal("figures 4/5 empty")
	}
	tbl := res.Table("Figure 3")
	if len(tbl.Rows) != 2+2 { // 2 ranks + mean + max
		t.Fatalf("fig3 table rows = %d", len(tbl.Rows))
	}
}

func TestFig6TinySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	res := Fig6(tinyOpt())
	if len(res.Pairs) != 4 {
		t.Fatalf("%d pairs, want 4", len(res.Pairs))
	}
	for _, p := range res.Pairs {
		if p.Insertion <= 0 || p.Bypass <= 0 {
			t.Fatalf("%s has non-positive means: %+v", p.Name, p)
		}
	}
}

func TestTable4TinySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	opt := tinyOpt()
	opt.MeasureInstr = 150_000
	rows := Table4(opt)
	if len(rows) != 38 {
		t.Fatalf("%d rows, want 38", len(rows))
	}
	byName := map[string]Table4Row{}
	for _, r := range rows {
		if r.FpnAll < 0 || r.FpnSamp < 0 {
			t.Fatalf("%s: negative footprint", r.Name)
		}
		byName[r.Name] = r
	}
	// Shape checks, not exact values: thrashers measure far larger
	// footprints than tiny apps, and sampling tracks the full measurement.
	if byName["libq"].FpnAll <= byName["calc"].FpnAll {
		t.Fatalf("libq fpn %.2f <= calc fpn %.2f", byName["libq"].FpnAll, byName["calc"].FpnAll)
	}
	if byName["lbm"].L2MPKI <= byName["eon"].L2MPKI {
		t.Fatal("lbm should be vastly more intense than eon")
	}
	tbl := Table4Table(rows)
	if len(tbl.Rows) != 38 {
		t.Fatal("rendered table wrong size")
	}
}

// TestFig8TablesFollowStudies pins the render-path fix: the table list is
// derived from the Studies map in ascending core order — no second
// hard-coded core list — so extended sweeps (32/64/128) and custom grids
// render without touching the renderer, and beyond-paper studies carry the
// extension note.
func TestFig8TablesFollowStudies(t *testing.T) {
	fake := func() Fig3Result {
		return Fig3Result{
			Curves: map[string][]float64{"LRU": {0.99}},
			Mean:   map[string]float64{"LRU": 0.99},
		}
	}
	res := Fig8Result{Studies: map[int]Fig3Result{
		128: fake(), 8: fake(), 64: fake(), 24: fake(),
	}}
	tables := res.Tables()
	if len(tables) != 4 {
		t.Fatalf("%d tables, want 4", len(tables))
	}
	wantOrder := []string{"8-core", "24-core", "64-core", "128-core"}
	for i, tbl := range tables {
		if !strings.Contains(tbl.Title, wantOrder[i]) {
			t.Fatalf("table %d titled %q, want %s (ascending core order)", i, tbl.Title, wantOrder[i])
		}
		beyond := strings.Contains(tbl.Note, "beyond-paper")
		if wantExt := i >= 2; beyond != wantExt {
			t.Fatalf("table %q extension note = %v, want %v", tbl.Title, beyond, wantExt)
		}
	}
}

// TestFig8CoresSkipsUnknownCounts pins the degrade-not-fail contract for
// custom grids.
func TestFig8CoresSkipsUnknownCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	res := Fig8Cores(tinyOpt(), []int{4, 9999})
	if len(res.Studies) != 1 {
		t.Fatalf("%d studies, want 1 (9999 skipped)", len(res.Studies))
	}
	if _, ok := res.Studies[4]; !ok {
		t.Fatal("4-core study missing")
	}
}

func TestAblationTablesRender(t *testing.T) {
	a := AblationResult{Name: "x", Points: []AblationPoint{{Label: "a", Speedup: 1.01}}}
	if !strings.Contains(a.Table().String(), "1.010") {
		t.Fatal("ablation table did not render")
	}
}
