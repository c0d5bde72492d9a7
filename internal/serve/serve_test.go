package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// stubJob builds a valid (but never actually simulated — tests install a
// SetRunFn stub) 2-core job whose key varies with seed.
func stubJob(seed uint64) schedule.Job {
	cfg := sim.Scale(sim.DefaultConfig(2), 64)
	cfg.Seed = seed
	return schedule.Job{
		Config:  cfg,
		Names:   []string{"black", "gcc"},
		Warmup:  1000,
		Measure: 5000,
	}
}

// stubResult derives a deterministic, seed-distinguishable result so a
// disk-served copy can be compared with the original.
func stubResult(j schedule.Job) sim.Result {
	return sim.Result{
		Apps: []sim.AppResult{
			{Instructions: j.Measure, Cycles: j.Config.Seed * 100, IPC: float64(j.Config.Seed)},
			{Instructions: j.Measure, Cycles: j.Config.Seed * 200, IPC: float64(j.Config.Seed) / 2},
		},
		DRAMRowHitRate: float64(j.Config.Seed) / 10,
	}
}

func newTestServer(t *testing.T, sched *schedule.Scheduler) *httptest.Server {
	t.Helper()
	srv, err := New(Config{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// TestTablesStreamMatchesLocal streams the one simulation-free request
// (Table 2) and checks the frames are bit-identical to running the same
// request in process — the contract that makes paperfig -server output
// byte-equal to local output.
func TestTablesStreamMatchesLocal(t *testing.T) {
	var local []experiments.Table
	req := experiments.Request{Table: 2, Opt: experiments.Tiny()}
	if err := req.Run(func(tb experiments.Table) { local = append(local, tb) }); err != nil {
		t.Fatal(err)
	}

	hs := newTestServer(t, schedule.New(1))
	client := &Client{BaseURL: hs.URL}
	var streamed []experiments.Table
	sum, err := client.StreamTables(context.Background(), req, func(tb experiments.Table) error {
		streamed = append(streamed, tb)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil || sum.Request != "table2" || sum.Tables != len(local) {
		t.Fatalf("summary = %+v, want table2 with %d tables", sum, len(local))
	}
	lj, _ := json.Marshal(local)
	sj, _ := json.Marshal(streamed)
	if !bytes.Equal(lj, sj) {
		t.Fatalf("streamed tables != local tables\nstreamed: %s\nlocal: %s", sj, lj)
	}
}

// TestBadRequests covers the rejection paths: wrong method, undecodable
// body, invalid experiment selection.
func TestBadRequests(t *testing.T) {
	hs := newTestServer(t, schedule.New(1))

	get, err := http.Get(hs.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tables = %d, want 405", get.StatusCode)
	}

	for _, body := range []string{"not json", `{}`, `{"fig": 2, "options": {"MeasureInstr": 1}}`} {
		resp, err := http.Post(hs.URL+"/v1/tables", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /v1/tables %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestStatszAndMetrics fills a scheduler through Run, then checks the
// observability endpoints: /healthz answers, /statsz carries the counters,
// and /metrics serves exactly the documented series with their values.
func TestStatszAndMetrics(t *testing.T) {
	sched := schedule.New(2)
	sched.SetRunFn(stubResult)
	hs := newTestServer(t, sched)
	sched.Run(stubJob(1))
	sched.Run(stubJob(1)) // mem hit

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.KeySchema != schedule.KeySchema {
		t.Fatalf("statsz key schema = %q, want %q", st.KeySchema, schedule.KeySchema)
	}
	if st.Scheduler.Submitted != 2 || st.Scheduler.Executed != 1 || st.Gauges.MemEntries != 1 {
		t.Fatalf("statsz counters: %+v", st)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	got := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			got[name] = value
		}
	}
	want := map[string]string{
		"paperfigd_scheduler_submitted_total":   "2",
		"paperfigd_scheduler_executed_total":    "1",
		"paperfigd_scheduler_mem_hits_total":    "1",
		"paperfigd_scheduler_disk_hits_total":   "0",
		"paperfigd_scheduler_shared_total":      "0",
		"paperfigd_scheduler_disk_errors_total": "0",
		"paperfigd_scheduler_panics_total":      "0",
		"paperfigd_scheduler_inflight_flights":  "0",
		"paperfigd_scheduler_pool_cap":          "2",
		"paperfigd_scheduler_pool_busy":         "0",
		"paperfigd_scheduler_queue_depth":       "0",
		"paperfigd_scheduler_mem_entries":       "1",
		"paperfigd_http_requests_total":         "2", // /statsz and this /metrics
		"paperfigd_http_tables_streamed_total":  "0",
		"paperfigd_http_errors_total":           "0",
		"paperfigd_http_active_streams":         "0",
		"paperfigd_store_bytes":                 "0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics = %v\nwant %v", got, want)
	}
}

// TestNewOpensStoreWithDuplicateLine: two schedulers that share a cache
// dir both execute one job, leaving two identical lines in the store. The
// server's scheduler must load the store once and answer the job as one
// disk hit, without executing it.
func TestNewOpensStoreWithDuplicateLine(t *testing.T) {
	dir := t.TempDir()
	var want sim.Result
	writers := []*schedule.Scheduler{schedule.New(1), schedule.New(1)}
	for _, w := range writers {
		w.SetRunFn(stubResult)
		if err := w.SetCacheDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range writers {
		want = w.Run(stubJob(1))
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*", "*.seg"))
	lines := 0
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines += bytes.Count(data, []byte("\n"))
	}
	if lines != 2 {
		t.Fatalf("store holds %d lines, want the job's line twice", lines)
	}

	sched := schedule.New(1)
	sched.SetRunFn(func(j schedule.Job) sim.Result {
		t.Error("re-executed a job the store holds")
		return stubResult(j)
	})
	if _, err := New(Config{Scheduler: sched, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if got := sched.Run(stubJob(1)); !reflect.DeepEqual(got, want) {
		t.Fatal("disk-served result diverges")
	}
	if st := sched.Stats(); st.DiskHits != 1 || st.Executed != 0 || st.DiskErrors != 0 {
		t.Fatalf("stats = %s, want one disk hit", st)
	}
	if g := sched.Gauges(); g.MemEntries != 1 {
		t.Fatalf("gauges = %+v, want the duplicate lines loaded as one entry", g)
	}
}

// TestHarnessPanicEndsStream: a harness that panics on one of its worker
// goroutines must end its own stream with an error frame and leave the
// server serving. At cache scale 3 the LLC has 5461 sets, which is not a
// power of two: Table 4's footprint samplers reject it, and so does every
// figure job inside the scheduler.
func TestHarnessPanicEndsStream(t *testing.T) {
	hs := newTestServer(t, schedule.New(1))
	client := &Client{BaseURL: hs.URL}
	ignore := func(experiments.Table) error { return nil }
	opt := experiments.Tiny()
	opt.Scale = 3
	for _, req := range []experiments.Request{{Table: 4, Opt: opt}, {Fig: 1, Opt: opt}} {
		_, err := client.StreamTables(context.Background(), req, ignore)
		if err == nil || !strings.Contains(err.Error(), "experiment panicked") {
			t.Fatalf("%s: err = %v, want an error frame carrying the panic", req.Name(), err)
		}
	}
	sum, err := client.StreamTables(context.Background(), experiments.Request{Table: 2, Opt: experiments.Tiny()}, ignore)
	if err != nil || sum == nil || sum.Tables != 1 {
		t.Fatalf("table 2 after the panics: summary %+v, err %v", sum, err)
	}
}

// TestStoreBytesCountsCurrentSchemaOnly: the store size in /statsz (and
// /metrics) counts current-schema segments only. A segment written under
// another schema directory does not count.
func TestStoreBytesCountsCurrentSchemaOnly(t *testing.T) {
	dir := t.TempDir()
	sched := schedule.New(1)
	sched.SetRunFn(stubResult)
	srv, err := New(Config{Scheduler: sched, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sched.Run(stubJob(1))
	before := srv.Snapshot().Store.Bytes
	if before == 0 {
		t.Fatal("the executed job left no bytes in the store")
	}
	other := filepath.Join(dir, "job-v0+other-schema")
	if err := os.MkdirAll(other, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(other, "misc.seg"), bytes.Repeat([]byte("x"), 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := srv.Snapshot().Store.Bytes; got != before {
		t.Fatalf("store bytes = %d after another schema's segment appeared, want %d", got, before)
	}
}
