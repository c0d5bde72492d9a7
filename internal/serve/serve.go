// Package serve is the simulation-as-a-service layer: it wraps the
// process-wide schedule.Scheduler in an HTTP/JSON API so every
// paperfig -server client shares one result cache instead of one per
// invocation. The expensive recurring grids (the TA-DRRIP baselines behind
// Figures 1/3/6/8, the LFOC fairness comparisons) coalesce across every
// client of one paperfigd process.
//
// Endpoints:
//
//	POST /v1/tables   body: experiments.Request (JSON)
//	                  response: NDJSON stream of frames — {"table": ...}
//	                  per finished table, then {"done": summary} (or
//	                  {"error": ...}). Tables stream as studies complete.
//	GET  /statsz      JSON snapshot: scheduler counters/gauges, store and
//	                  HTTP traffic.
//	GET  /metrics     the same numbers in Prometheus text format.
//	GET  /healthz     liveness probe.
//
// Experiment requests run to completion server-side even if the client
// disconnects mid-stream: the results were worth computing once and are
// cached for the next requester.
//
// With a cache dir, New opens the store on the scheduler, which loads the
// store's append-only log into its result map; each job executed for any
// client then appends one line. The server never rewrites, compacts or
// caps the store: duplicate lines hold identical results, and older
// schemas' directories are never read. Deleting the cache root reclaims
// the space.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/schedule"
)

// maxBodyBytes bounds request bodies: an experiments.Request is a few
// hundred bytes of JSON.
const maxBodyBytes = 1 << 20

// Config parameterises a Server.
type Config struct {
	// Scheduler owns the disk tier and feeds /statsz; nil means the
	// process-wide schedule.Shared(). Experiment requests always run on the
	// shared scheduler (the harnesses route through it), so a production
	// server leaves this nil or passes Shared(); a private scheduler is a
	// seam for tests.
	Scheduler *schedule.Scheduler
	// CacheDir is the on-disk result store root ("" disables the disk
	// tier). New opens it on the scheduler, which loads its log.
	CacheDir string
	// Log receives request logs; nil discards them.
	Log *log.Logger
}

// Server is one paperfigd instance's handler state.
type Server struct {
	cfg   Config
	sched *schedule.Scheduler
	start time.Time

	requests       atomic.Uint64
	tablesStreamed atomic.Uint64
	httpErrors     atomic.Uint64
	activeStreams  atomic.Int64
}

// New builds a Server and, when a cache dir is configured, opens it on the
// scheduler.
func New(cfg Config) (*Server, error) {
	if cfg.Scheduler == nil {
		cfg.Scheduler = schedule.Shared()
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	if cfg.CacheDir != "" {
		if err := cfg.Scheduler.SetCacheDir(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	return &Server{cfg: cfg, sched: cfg.Scheduler, start: time.Now()}, nil
}

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tables", s.handleTables)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// StreamSummary is the terminal frame of one /v1/tables stream.
type StreamSummary struct {
	// Request names the experiment that ran ("fig3", "compare", ...).
	Request string `json:"request"`
	// Tables is how many tables the stream carried.
	Tables int `json:"tables"`
	// Elapsed is the server-side wall time of this request.
	Elapsed string `json:"elapsed"`
	// Scheduler is the server's cumulative scheduler traffic (all clients,
	// process lifetime — not just this request).
	Scheduler schedule.Stats `json:"scheduler"`
}

// Frame is one NDJSON line of a /v1/tables response. Exactly one field is
// set per line: Table for each result, then either Done or Error to
// terminate the stream.
type Frame struct {
	Table *experiments.Table `json:"table,omitempty"`
	Done  *StreamSummary     `json:"done,omitempty"`
	Error string             `json:"error,omitempty"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req experiments.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}

	s.activeStreams.Add(1)
	defer s.activeStreams.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	start := time.Now()
	tables := 0
	emit := func(t experiments.Table) {
		tables++
		s.tablesStreamed.Add(1)
		enc.Encode(Frame{Table: &t})
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The harness runs to completion even if the client went away (the
	// write side just starts failing): the simulations are cached for the
	// next requester. A panicking harness (bad config, simulator bug) is
	// contained to this request.
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("experiment panicked: %v\n%s", p, debug.Stack())
			}
		}()
		return req.Run(emit)
	}()
	if err != nil {
		s.httpErrors.Add(1)
		s.cfg.Log.Printf("paperfigd: %s failed: %v", req.Name(), err)
		enc.Encode(Frame{Error: err.Error()})
		return
	}
	enc.Encode(Frame{Done: &StreamSummary{
		Request:   req.Name(),
		Tables:    tables,
		Elapsed:   time.Since(start).Round(time.Millisecond).String(),
		Scheduler: schedule.Shared().Stats(),
	}})
	s.cfg.Log.Printf("paperfigd: %s served (%d tables, %s)", req.Name(), tables, time.Since(start).Round(time.Millisecond))
}

// Statsz is the JSON document served at /statsz.
type Statsz struct {
	// Uptime is how long this server has been running.
	Uptime string `json:"uptime"`
	// KeySchema is the job-key schema the store is versioned by.
	KeySchema string `json:"key_schema"`
	// Scheduler / Gauges are the scheduler's counters and live state.
	Scheduler schedule.Stats  `json:"scheduler"`
	Gauges    schedule.Gauges `json:"gauges"`
	// HTTP is this server's request traffic.
	HTTP HTTPStats `json:"http"`
	// Store describes the on-disk tier ("" dir = disabled).
	Store StoreStats `json:"store"`
}

// HTTPStats counts server traffic.
type HTTPStats struct {
	// Requests counts every API call; TablesStreamed counts tables sent to
	// clients; Errors counts failed requests.
	Requests       uint64 `json:"requests"`
	TablesStreamed uint64 `json:"tables_streamed"`
	Errors         uint64 `json:"errors"`
	// ActiveStreams is the number of table streams in flight right now.
	ActiveStreams int64 `json:"active_streams"`
}

// StoreStats describes the on-disk segment store.
type StoreStats struct {
	// Dir is the cache root ("" = disk tier disabled).
	Dir string `json:"dir,omitempty"`
	// Bytes is the current-schema store size on disk.
	Bytes int64 `json:"bytes"`
}

// Snapshot assembles the current Statsz document.
func (s *Server) Snapshot() Statsz {
	st := Statsz{
		Uptime:    time.Since(s.start).Round(time.Second).String(),
		KeySchema: schedule.KeySchema,
		Scheduler: s.sched.Stats(),
		Gauges:    s.sched.Gauges(),
		HTTP: HTTPStats{
			Requests:       s.requests.Load(),
			TablesStreamed: s.tablesStreamed.Load(),
			Errors:         s.httpErrors.Load(),
			ActiveStreams:  s.activeStreams.Load(),
		},
	}
	if s.cfg.CacheDir != "" {
		st.Store = StoreStats{
			Dir:   s.cfg.CacheDir,
			Bytes: schedule.StoreBytes(s.cfg.CacheDir),
		}
	}
	return st
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	enc.Encode(s.Snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	st := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name string, v uint64, help string) {
		fmt.Fprintf(w, "# HELP paperfigd_%s %s\n# TYPE paperfigd_%s counter\npaperfigd_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name string, v int64, help string) {
		fmt.Fprintf(w, "# HELP paperfigd_%s %s\n# TYPE paperfigd_%s gauge\npaperfigd_%s %d\n", name, help, name, name, v)
	}
	sc, g := st.Scheduler, st.Gauges
	counter("scheduler_submitted_total", sc.Submitted, "jobs submitted to the scheduler")
	counter("scheduler_executed_total", sc.Executed, "jobs that actually simulated")
	counter("scheduler_mem_hits_total", sc.MemHits, "in-memory tier hits")
	counter("scheduler_disk_hits_total", sc.DiskHits, "first hits on results loaded from disk")
	counter("scheduler_shared_total", sc.Shared, "callers that joined an in-flight execution")
	counter("scheduler_disk_errors_total", sc.DiskErrors, "log lines skipped at open and failed appends")
	counter("scheduler_panics_total", sc.Panics, "jobs whose execution panicked")
	gauge("scheduler_inflight_flights", int64(g.InflightFlights), "singleflight keys executing now")
	gauge("scheduler_pool_cap", int64(g.PoolCap), "worker pool slots")
	gauge("scheduler_pool_busy", int64(g.PoolBusy), "worker pool slots claimed")
	gauge("scheduler_queue_depth", int64(g.QueueDepth), "jobs waiting for pool admission")
	gauge("scheduler_mem_entries", int64(g.MemEntries), "cached results, loaded ones included")
	counter("http_requests_total", st.HTTP.Requests, "API requests received")
	counter("http_tables_streamed_total", st.HTTP.TablesStreamed, "tables streamed to clients")
	counter("http_errors_total", st.HTTP.Errors, "failed API requests")
	gauge("http_active_streams", st.HTTP.ActiveStreams, "table streams in flight")
	gauge("store_bytes", st.Store.Bytes, "on-disk segment store size")
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.httpErrors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
