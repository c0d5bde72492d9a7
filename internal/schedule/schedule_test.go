package schedule

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func testJob(seed uint64, names ...string) Job {
	if len(names) == 0 {
		names = []string{"calc", "libq"}
	}
	cfg := sim.Scale(sim.DefaultConfig(len(names)), 64)
	cfg.Seed = seed
	cfg.PolicyOpt.Seed = seed
	return Job{Config: cfg, Names: names, Warmup: 10_000, Measure: 30_000}
}

// fakeResult is what the stubbed runFn returns; tagged by Cycles so tests
// can tell results apart.
func fakeRun(tag uint64) func(Job) sim.Result {
	return func(j Job) sim.Result {
		return sim.Result{Apps: []sim.AppResult{{Cycles: tag, IPC: 1}}}
	}
}

func TestJobKeyStableAndSensitive(t *testing.T) {
	a, b := testJob(1), testJob(1)
	if a.Key() != b.Key() {
		t.Fatal("identical jobs key differently")
	}
	variants := []Job{
		testJob(2),                 // different seed
		testJob(1, "calc", "lbm"),  // different mix
		testJob(1, "libq", "calc"), // core order matters
		func() Job { j := testJob(1); j.Warmup++; return j }(),
		func() Job { j := testJob(1); j.Measure++; return j }(),
		func() Job { j := testJob(1); j.Config.LLCPolicy = "lru"; return j }(),
	}
	seen := map[string]bool{a.Key(): true}
	for i, v := range variants {
		if seen[v.Key()] {
			t.Fatalf("variant %d collides with a previous key", i)
		}
		seen[v.Key()] = true
	}
}

// TestJobKeyGolden pins one 16-core job's content-addressed key. Keys name
// the on-disk cache entries, so a change that moves this digest strands
// every stored result and must come with a deliberate KeySchema bump.
func TestJobKeyGolden(t *testing.T) {
	names := []string{
		"lbm", "STRM", "libq", "milc", "calc", "mcf", "art", "gcc",
		"lbm", "STRM", "libq", "milc", "calc", "mcf", "art", "gcc",
	}
	j := testJob(42, names...)
	const want = "47754af12ccc7a29b365b1fb5133e9e41845ce710765281bc45b8eb42a9d8ee9"
	if got := j.Key(); got != want {
		t.Fatalf("Job.Key drifted:\n  got  %s\n  want %s", got, want)
	}
}

func TestRunMemoizes(t *testing.T) {
	s := New(2)
	var executions atomic.Uint64
	s.runFn = func(j Job) sim.Result {
		executions.Add(1)
		return fakeRun(7)(j)
	}
	j := testJob(1)
	r1 := s.Run(j)
	r2 := s.Run(j)
	if executions.Load() != 1 {
		t.Fatalf("executed %d times, want 1", executions.Load())
	}
	if r1.Apps[0].Cycles != 7 || r2.Apps[0].Cycles != 7 {
		t.Fatal("wrong results")
	}
	st := s.Stats()
	if st.Submitted != 2 || st.Executed != 1 || st.MemHits != 1 || st.Hits() != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The stored result must not alias the returned one.
	r1.Apps[0].Cycles = 999
	if got := s.Run(j).Apps[0].Cycles; got != 7 {
		t.Fatalf("caller mutation leaked into the store: %d", got)
	}
}

func TestRunSingleflight(t *testing.T) {
	s := New(4)
	var executions atomic.Uint64
	release := make(chan struct{})
	s.runFn = func(j Job) sim.Result {
		executions.Add(1)
		<-release
		return fakeRun(3)(j)
	}
	j := testJob(1)
	const callers = 8
	var wg sync.WaitGroup
	results := make([]sim.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Run(j)
		}(i)
	}
	// Let every goroutine reach the scheduler before releasing the leader.
	for s.Stats().Shared < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if executions.Load() != 1 {
		t.Fatalf("executed %d times under contention, want 1", executions.Load())
	}
	for i, r := range results {
		if r.Apps[0].Cycles != 3 {
			t.Fatalf("caller %d got wrong result", i)
		}
	}
	st := s.Stats()
	if st.Shared != callers-1 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDistinctJobsDoNotShare(t *testing.T) {
	s := New(2)
	var executions atomic.Uint64
	s.runFn = func(j Job) sim.Result {
		executions.Add(1)
		return sim.Result{Apps: []sim.AppResult{{Cycles: j.Config.Seed}}}
	}
	if s.Run(testJob(1)).Apps[0].Cycles != 1 || s.Run(testJob(2)).Apps[0].Cycles != 2 {
		t.Fatal("results crossed between distinct jobs")
	}
	if executions.Load() != 2 {
		t.Fatalf("executed %d, want 2", executions.Load())
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := testJob(1)
	j.Segment = "16-core"

	s1 := New(2)
	s1.runFn = fakeRun(42)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	want := s1.Run(j)

	// A fresh scheduler (fresh process, conceptually) hits the disk tier.
	s2 := New(2)
	s2.runFn = func(Job) sim.Result { t.Fatal("disk hit should not execute"); return sim.Result{} }
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	got := s2.Run(j)
	if got.Apps[0].Cycles != want.Apps[0].Cycles {
		t.Fatalf("disk round-trip changed the result: %+v vs %+v", got, want)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Executed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// And the disk hit is promoted to the memory tier.
	s2.Run(j)
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("no mem promotion: %+v", st)
	}
}

// TestDiskCacheSegmentsShareFiles pins the inode-churn fix: a study's worth
// of jobs lands in ONE append-only segment file (plus one per other
// segment), not one file per job, and a differently-segmented request for
// the same job is still a disk hit.
func TestDiskCacheSegmentsShareFiles(t *testing.T) {
	dir := t.TempDir()
	s1 := New(2)
	s1.runFn = fakeRun(5)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	jobs := []Job{testJob(1), testJob(2), testJob(3)}
	for i := range jobs {
		jobs[i].Segment = "128-core"
		s1.Run(jobs[i])
	}
	solo := testJob(4, "calc")
	solo.Segment = "solo"
	s1.Run(solo)

	entries, err := os.ReadDir(filepath.Join(dir, schemaSlug()))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("4 jobs produced %d files (%v), want 2 segments", len(names), names)
	}
	for _, want := range []string{"128-core.seg", "solo.seg"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("segment %s missing from %v", want, names)
		}
	}

	// Segment names group storage only: the same job under another segment
	// is the same key, so a fresh scheduler serves it from disk.
	s2 := New(2)
	s2.runFn = func(Job) sim.Result { t.Fatal("should not execute"); return sim.Result{} }
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	relabeled := testJob(1)
	relabeled.Segment = "some-other-study"
	s2.Run(relabeled)
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskCacheSchemaInvalidation(t *testing.T) {
	dir := t.TempDir()
	j := testJob(1)

	s1 := New(2)
	s1.runFn = fakeRun(1)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s1.Run(j)

	// Rewrite the segment as if an older schema had produced its entry.
	path := filepath.Join(dir, schemaSlug(), "misc.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e segEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Schema = "job/v0+stale"
	stale, _ := json.Marshal(e)
	if err := os.WriteFile(path, append(stale, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(2)
	var executions atomic.Uint64
	s2.runFn = func(j Job) sim.Result { executions.Add(1); return fakeRun(2)(j) }
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s2.Run(j)
	if executions.Load() != 1 {
		t.Fatal("stale-schema entry was served instead of re-executing")
	}
	if st := s2.Stats(); st.DiskHits != 0 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDiskCacheCorruptLineSkipped simulates a crash mid-append: a torn
// trailing line must be counted and skipped at the next open, while every
// whole line before it is still served.
func TestDiskCacheCorruptLineSkipped(t *testing.T) {
	dir := t.TempDir()
	j := testJob(1)
	s1 := New(2)
	s1.runFn = fakeRun(1)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s1.Run(j)
	path := filepath.Join(dir, schemaSlug(), "misc.seg")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"` + KeySchema + `","key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := New(2)
	s2.runFn = func(Job) sim.Result { t.Fatal("whole line should still hit"); return sim.Result{} }
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s2.Run(j)
	st := s2.Stats()
	if st.DiskErrors != 1 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRealSimulationThroughScheduler exercises the default runFn end to
// end: a real tiny simulation, twice, must hit the memo and agree exactly
// (the simulator is deterministic).
func TestRealSimulationThroughScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	s := New(2)
	j := testJob(42, "calc")
	r1 := s.Run(j)
	r2 := s.Run(j)
	if len(r1.Apps) != 1 || r1.Apps[0].IPC <= 0 {
		t.Fatalf("implausible result: %+v", r1)
	}
	if r1.Apps[0] != r2.Apps[0] {
		t.Fatal("memoized result differs from original")
	}
	if st := s.Stats(); st.Executed != 1 || st.MemHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSharedIsSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared() returned distinct schedulers")
	}
}

// TestPanickingJobSettlesFlight is the regression test for the panic-safe
// flight: a panicking runFn must (a) not wedge latecomers blocked on the
// flight, (b) release its pool slot, (c) re-panic as *PanicError on every
// caller, and (d) be counted in Stats.Panics. Before the fix, the flight
// never settled and every latecomer on the key blocked forever.
func TestPanickingJobSettlesFlight(t *testing.T) {
	s := New(1) // one slot: a leak would wedge the next job
	entered := make(chan struct{})
	release := make(chan struct{})
	s.runFn = func(j Job) sim.Result {
		close(entered)
		<-release
		panic("simulator bug")
	}
	j := testJob(1)

	// run calls Run and reports what it panicked with (nil if it returned).
	run := func(out chan<- any) {
		defer func() { out <- recover() }()
		s.Run(j)
	}
	leader := make(chan any, 1)
	go run(leader)
	<-entered

	// A latecomer joins the in-flight key, then the job panics.
	latecomer := make(chan any, 1)
	go run(latecomer)
	for s.Stats().Shared < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i, ch := range []chan any{leader, latecomer} {
		select {
		case p := <-ch:
			pe, ok := p.(*PanicError)
			if !ok {
				t.Fatalf("caller %d: recovered %v, want *PanicError", i, p)
			}
			if pe.Key != j.Key() || pe.Stack == "" {
				t.Fatalf("caller %d: incomplete PanicError: %+v", i, pe)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("caller %d wedged on the panicked flight", i)
		}
	}
	if st := s.Stats(); st.Panics != 1 || st.Executed != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// The key must not be poisoned and the pool slot must be back: a job
	// on the same key runs (and succeeds) afterwards.
	s.runFn = fakeRun(11)
	done := make(chan sim.Result, 1)
	go func() { done <- s.Run(j) }()
	select {
	case r := <-done:
		if r.Apps[0].Cycles != 11 {
			t.Fatalf("post-panic run returned %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool slot leaked: post-panic job never ran")
	}
	if g := s.Gauges(); g.PoolBusy != 0 || g.InflightFlights != 0 {
		t.Fatalf("gauges not drained: %+v", g)
	}
}

// TestRunRepanicsOnPanickedJob pins the CLI contract: Run re-panics a job
// panic as *PanicError after the flight settles, preserving crash-on-bug
// behaviour without wedging anyone else.
func TestRunRepanicsOnPanickedJob(t *testing.T) {
	s := New(2)
	s.runFn = func(j Job) sim.Result { panic("boom") }
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Run did not re-panic")
		}
		if _, ok := p.(*PanicError); !ok {
			t.Fatalf("Run panicked with %T, want *PanicError", p)
		}
	}()
	s.Run(testJob(1))
}

// TestFailedAppendReexecutesAfterRestart: when the segment append fails,
// the failure is counted as a DiskError and the result is still served
// from memory, but nothing durable claims it, so a restarted process on
// the same dir re-executes the job.
func TestFailedAppendReexecutesAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s := New(2)
	s.runFn = fakeRun(3)
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	// Make the append fail (works even as root, unlike chmod): a directory
	// squats on the segment path, so the O_CREATE open errors.
	segPath := filepath.Join(dir, schemaSlug(), "misc.seg")
	if err := os.Mkdir(segPath, 0o755); err != nil {
		t.Fatal(err)
	}

	j := testJob(1)
	if r := s.Run(j); r.Apps[0].Cycles != 3 {
		t.Fatalf("result = %+v", r)
	}
	st := s.Stats()
	if st.DiskErrors != 1 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Restart simulation: a fresh scheduler on the same dir must re-execute.
	if err := os.Remove(segPath); err != nil {
		t.Fatal(err)
	}
	s2 := New(2)
	var executions atomic.Uint64
	s2.runFn = func(j Job) sim.Result { executions.Add(1); return fakeRun(3)(j) }
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s2.Run(j)
	if executions.Load() != 1 {
		t.Fatal("phantom entry served after restart")
	}
}

// TestSetPoolSize: growing the pool admits queued jobs; shrinking drains
// without cancelling.
func TestSetPoolSize(t *testing.T) {
	s := New(1)
	var inFlight, maxInFlight atomic.Int64
	s.runFn = func(j Job) sim.Result {
		now := inFlight.Add(1)
		for {
			max := maxInFlight.Load()
			if now <= max || maxInFlight.CompareAndSwap(max, now) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return fakeRun(1)(j)
	}
	s.SetPoolSize(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Run(testJob(uint64(200 + i)))
		}(i)
	}
	wg.Wait()
	if got := maxInFlight.Load(); got > 4 {
		t.Fatalf("resized pool admitted %d jobs, cap 4", got)
	}
	if g := s.Gauges(); g.PoolCap != 4 || g.PoolBusy != 0 {
		t.Fatalf("gauges = %+v", g)
	}
}

// TestConcurrentRunsOfLoadedKey: concurrent callers of one key loaded from
// the log share the loaded result without a flight. The first hit counts
// as the disk hit and clears the mark; the rest are memory hits. Run under
// -race this also checks that clearing the mark is synchronized.
func TestConcurrentRunsOfLoadedKey(t *testing.T) {
	dir := t.TempDir()
	j := testJob(1)
	writer := New(1)
	writer.runFn = fakeRun(9)
	if err := writer.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	writer.Run(j)

	s := New(2)
	s.runFn = func(Job) sim.Result { t.Error("a loaded key executed"); return sim.Result{} }
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := s.Run(j); r.Apps[0].Cycles != 9 {
				t.Errorf("loaded result = %+v", r)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.DiskHits != 1 || st.MemHits != callers-1 || st.Executed != 0 || st.Shared != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit and %d mem hits", st, callers-1)
	}
}

// TestReopenKeepsMemoryEntry: re-opening a cache dir loads lines for
// results the map already holds, and must not replace them. A job executed
// before the re-open is still a memory hit, not a disk hit.
func TestReopenKeepsMemoryEntry(t *testing.T) {
	dir := t.TempDir()
	j := testJob(1)
	s := New(2)
	s.runFn = fakeRun(4)
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s.Run(j)
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if r := s.Run(j); r.Apps[0].Cycles != 4 {
		t.Fatalf("result = %+v", r)
	}
	if st := s.Stats(); st.Executed != 1 || st.MemHits != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want the re-opened job to stay a memory entry", st)
	}
	if g := s.Gauges(); g.MemEntries != 1 {
		t.Fatalf("gauges = %+v", g)
	}
}
