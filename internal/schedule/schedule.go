// Package schedule is the process-wide simulation scheduler that every
// experiment harness routes through. It replaces the per-harness worker
// pools of internal/experiments with one bounded pool, and memoizes
// simulation results so identical (config, workload, budget) jobs — which
// the paper's figure/table grids request constantly, e.g. the TA-DRRIP
// baseline runs shared by Figures 1/3/6/8 and Table 7 — execute exactly
// once per process and optionally once per machine. Each simulation is
// single-threaded and occupies one worker slot while it executes.
//
// The scheduler has three cooperating mechanisms:
//
//   - Content-addressed job keys: Job.Key() digests the fully-configured
//     sim.Config (via sim.Config.Fingerprint), the workload names and the
//     warm-up/measure budgets. Keys are valid across processes.
//   - Singleflight execution: concurrent callers requesting the same key
//     share one execution; latecomers block on the leader's result.
//   - One result map, optionally backed by an append-only log on disk
//     (SetCacheDir, conventionally .simcache/) versioned by the key
//     schema, so cmd/paperfig re-runs are incremental across invocations.
//     Opening a cache dir loads its log into the map; each executed job
//     appends one line, and nothing else touches the files.
//
// Flights always settle: a panicking job becomes a *PanicError that every
// caller on the key re-panics with, never a wedged key or a leaked pool
// slot, so internal/serve can contain one bad request inside the
// long-lived paperfigd server.
package schedule

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/mem"
	"repro/internal/sim"
)

// KeySchema versions Job.Key. It folds in sim.FingerprintSchema so a
// change to the config encoding invalidates disk caches automatically; the
// job version itself must be bumped whenever the *simulation semantics* for
// an unchanged config change, so stale disk-cache entries strand instead of
// silently mixing with fresh results.
//
// v2: batch-invariant event loop and out-of-order-correct shared-resource
// timing (busy-interval timelines, FCFS pools); results for identical
// configs differ from v1.
//
// v3: segment-file disk tier (one append-only segment per study instead of
// one JSON file per job). Simulation semantics are unchanged — the golden-
// fingerprint corpus is identical to v2 — but the on-disk layout is not,
// and the bump strands v2 per-key files instead of mixing formats in one
// directory.
//
// v4: timeline-native substrate. DRAM row hit/miss is decided by the row
// open at an access's *reserved service time* (not presentation order), the
// LLC-side MSHR/write-back pools are sharded per DRAM bank, and Results
// carry arbiter-wait histograms plus per-bank row counters. Results for
// identical configs differ from v3 (the golden corpus was re-pinned in the
// same commit), so v3 disk-cache segments must strand.
//
// v5: fairness clustering layer (internal/cluster). Config grows the
// fingerprinted Cluster section and AppResult grows Cluster/ClusterWays
// fields; serialized Results therefore differ in shape from v4 even for
// unclustered configs, and the golden corpus was re-pinned in the same
// commit (field names participate in the result digest), so v4 disk-cache
// segments must strand.
//
// v6: the stall tie rule (cache.TimedPool): a stall on a full pool whose
// earliest occupations complete together takes the earliest-arriving one's
// entry, not whichever the old heap's sifts left at its root. Results move
// only where such a tie has different arrivals and the choice matters
// later; as with v3, the golden corpus is unchanged.
const KeySchema = "job/v6+" + sim.FingerprintSchema

// Job is one simulation request: a fully-configured machine (any
// PolicySpec.Configure mutation already applied), a workload, and the
// instruction budgets. The scheduler assumes — and the simulator
// guarantees — that a Job's Result is a pure function of these fields.
type Job struct {
	Config  sim.Config `json:"config"`
	Names   []string   `json:"names"` // one benchmark per core, sim.NewFromNames order
	Warmup  uint64     `json:"warmup"`
	Measure uint64     `json:"measure"`

	// Segment names the disk-tier segment file this job's result is
	// appended to — conventionally the study ("24-core", "128-core") or
	// "solo" for baselines. It groups storage only and is deliberately NOT
	// part of Key(): the same job requested under two segments is still one
	// simulation, and either segment's stored copy satisfies both.
	Segment string `json:"segment,omitempty"`
}

// Key returns the job's content-addressed identity.
func (j Job) Key() string {
	h := sha256.New()
	io.WriteString(h, KeySchema)
	io.WriteString(h, "\x00cfg="+j.Config.Fingerprint())
	fmt.Fprintf(h, "\x00warmup=%d\x00measure=%d\x00names=%d", j.Warmup, j.Measure, len(j.Names))
	for _, n := range j.Names {
		io.WriteString(h, "\x00"+n)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (j Job) run() sim.Result {
	return sim.NewFromNames(j.Config, j.Names).Run(j.Warmup, j.Measure)
}

// Stats counts scheduler traffic. Hits()>0 across two harnesses proves the
// grids overlap and the dedup machinery is earning its keep.
type Stats struct {
	// Submitted counts every Run call.
	Submitted uint64 `json:"submitted"`
	// Executed counts jobs that actually simulated.
	Executed uint64 `json:"executed"`
	// DiskHits counts the first hit on each result loaded from the
	// on-disk log; MemHits counts every other hit on the result map.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// Shared counts callers that joined another caller's in-flight run.
	Shared uint64 `json:"shared"`
	// DiskErrors counts log lines skipped when a cache dir was opened and
	// appends that failed (the cache is best-effort).
	DiskErrors uint64 `json:"disk_errors"`
	// Panics counts jobs whose execution panicked; each settles its flight
	// with a *PanicError instead of wedging latecomers on the key.
	Panics uint64 `json:"panics"`
}

// Hits is the total number of simulations avoided.
func (s Stats) Hits() uint64 { return s.MemHits + s.DiskHits + s.Shared }

// String renders a one-line summary for logs.
func (s Stats) String() string {
	out := fmt.Sprintf("submitted=%d executed=%d mem-hits=%d disk-hits=%d shared=%d",
		s.Submitted, s.Executed, s.MemHits, s.DiskHits, s.Shared)
	if s.DiskErrors > 0 {
		out += fmt.Sprintf(" disk-errors=%d", s.DiskErrors)
	}
	if s.Panics > 0 {
		out += fmt.Sprintf(" panics=%d", s.Panics)
	}
	return out
}

// Gauges is a point-in-time view of the scheduler's moving parts — the
// live quantities (as opposed to the monotone Stats counters) that
// paperfigd exposes at /statsz and /metrics.
type Gauges struct {
	// InflightFlights is the number of keys currently executing or queued
	// as singleflight leaders.
	InflightFlights int `json:"inflight_flights"`
	// PoolCap / PoolBusy are the worker pool's total and claimed slots.
	PoolCap  int `json:"pool_cap"`
	PoolBusy int `json:"pool_busy"`
	// QueueDepth counts jobs waiting for pool admission.
	QueueDepth int `json:"queue_depth"`
	// MemEntries counts results in the result map, including those
	// loaded from the on-disk log.
	MemEntries int `json:"mem_entries"`
}

// PanicError is the error a panicking job settles its flight with. Every
// caller waiting on the key receives it instead of deadlocking on a flight
// that will never close; Run re-panics it to preserve the CLI's
// crash-on-bug behaviour.
type PanicError struct {
	// Key is the job's content-addressed identity.
	Key string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error summarises the panic; the captured stack is in Stack.
func (e *PanicError) Error() string {
	k := e.Key
	if len(k) > 12 {
		k = k[:12]
	}
	return fmt.Sprintf("schedule: job %s panicked: %v", k, e.Value)
}

// flight is one in-progress execution of a key that concurrent callers
// share. done is closed exactly once, after res/err are final; an
// err != nil flight is never stored.
type flight struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// slotPool is the scheduler's worker budget: cap unit slots, one per
// executing job. Admission is strict FIFO, so a job at the head of the
// queue is never overtaken by latecomers.
type slotPool struct {
	mu      sync.Mutex
	cap     int
	busy    int // may exceed cap transiently after a shrinking resize
	waiters []chan struct{}
}

// acquire blocks until a slot is free and claims it.
func (p *slotPool) acquire() {
	p.mu.Lock()
	if len(p.waiters) == 0 && p.busy < p.cap {
		p.busy++
		p.mu.Unlock()
		return
	}
	ready := make(chan struct{})
	p.waiters = append(p.waiters, ready)
	p.mu.Unlock()
	<-ready
}

func (p *slotPool) release() {
	p.mu.Lock()
	p.busy--
	p.grantLocked()
	p.mu.Unlock()
}

// grantLocked admits queued jobs from the head while slots are free.
// Called with p.mu held.
func (p *slotPool) grantLocked() {
	for len(p.waiters) > 0 && p.busy < p.cap {
		close(p.waiters[0])
		p.waiters = p.waiters[1:]
		p.busy++
	}
}

// resize changes the pool capacity in place. Growing admits queued jobs
// immediately; shrinking lets in-flight jobs finish without cancelling
// anything.
func (p *slotPool) resize(capacity int) {
	p.mu.Lock()
	p.cap = capacity
	p.grantLocked()
	p.mu.Unlock()
}

// gauges reports (cap, busy, queued jobs).
func (p *slotPool) gauges() (capacity, busy, queued int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cap, p.busy, len(p.waiters)
}

// Scheduler is a bounded, memoizing simulation executor. The zero value is
// not usable; use New or Shared.
type Scheduler struct {
	pool *slotPool // worker budget; see slotPool

	mu       sync.Mutex
	runFn    func(Job) sim.Result // execution seam; see SetRunFn
	mem      map[string]stored    // every known result, never evicted
	inflight map[string]*flight
	disk     *diskCache
	stats    Stats
}

// stored is one result in the scheduler's map. fromDisk marks a result
// loaded from the on-disk log that no Run has returned yet, so its first
// hit counts as a disk hit and every later one as a memory hit.
type stored struct {
	res      sim.Result
	fromDisk bool
}

// New builds a scheduler with the given worker-pool size (<=0 means
// GOMAXPROCS).
func New(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{
		pool:     &slotPool{cap: workers},
		runFn:    Job.run,
		mem:      map[string]stored{},
		inflight: map[string]*flight{},
	}
}

var (
	sharedOnce sync.Once
	shared     *Scheduler
)

// Shared returns the process-wide scheduler all harnesses use by default,
// sized to GOMAXPROCS. Sharing it is what lets independent harnesses (and
// independent tests in one binary) reuse each other's baseline runs — and
// what lets paperfigd coalesce table requests from many clients.
func Shared() *Scheduler {
	sharedOnce.Do(func() { shared = New(0) })
	return shared
}

// SetCacheDir enables (dir != "") or disables (dir == "") the on-disk
// result log. Entries live in append-only segment files under
// dir/<key-schema-slug>/<segment>.seg, so a schema bump naturally strands
// old entries rather than misreading them. Opening a dir loads every
// current-schema line into the result map, marked as coming from disk,
// and counts unusable lines as DiskErrors; a loaded line never replaces a
// result the map already holds. The scheduler lock is held while the log
// loads, so a concurrent Run sees either none of it or all of it.
func (s *Scheduler) SetCacheDir(dir string) error {
	var d *diskCache
	if dir != "" {
		var err error
		if d, err = newDiskCache(dir); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disk = d
	if d == nil {
		return nil
	}
	skipped, err := readSegments(d.dir, func(key string, r sim.Result) {
		if _, ok := s.mem[key]; !ok {
			s.mem[key] = stored{res: r, fromDisk: true}
		}
	})
	s.stats.DiskErrors += skipped
	return err
}

// SetPoolSize changes the worker-pool size at runtime (<=0 means
// GOMAXPROCS). Shrinking never cancels running jobs; it just delays new
// admissions until enough of them finish.
func (s *Scheduler) SetPoolSize(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s.pool.resize(workers)
}

// SetRunFn replaces the function that executes one job. It is a seam for
// tests and benchmarks (a stub needs no real simulations, a wrapper can
// time them); production code leaves the default in place.
func (s *Scheduler) SetRunFn(fn func(Job) sim.Result) {
	s.mu.Lock()
	s.runFn = fn
	s.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Gauges returns a snapshot of the scheduler's live state.
func (s *Scheduler) Gauges() Gauges {
	capacity, busy, queued := s.pool.gauges()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Gauges{
		InflightFlights: len(s.inflight),
		PoolCap:         capacity,
		PoolBusy:        busy,
		QueueDepth:      queued,
		MemEntries:      len(s.mem),
	}
}

// Run executes the job or returns its memoized result. Concurrent calls
// with the same key share one execution. The returned Result's Apps slice
// is a private copy; callers may keep or modify it freely. If the job's
// execution panicked, Run re-panics with the *PanicError — the flight is
// settled first, so no other caller is wedged by the crash.
func (s *Scheduler) Run(j Job) sim.Result {
	key := j.Key()

	s.mu.Lock()
	s.stats.Submitted++
	if e, ok := s.mem[key]; ok {
		if e.fromDisk {
			s.stats.DiskHits++
			s.mem[key] = stored{res: e.res}
		} else {
			s.stats.MemHits++
		}
		s.mu.Unlock()
		return cloneResult(e.res)
	}
	f, joined := s.inflight[key]
	if joined {
		s.stats.Shared++
	} else {
		f = &flight{done: make(chan struct{})}
		s.inflight[key] = f
		go s.lead(key, j, f, s.disk)
	}
	s.mu.Unlock()

	<-f.done
	if f.err != nil {
		panic(f.err)
	}
	return cloneResult(f.res)
}

// lead resolves one flight: pool-bounded execution, an append to the
// on-disk log, settlement. The deferred settle is the panic-safety
// contract — no matter what the job does, waiters are woken and the key
// is released, with a panic converted into the flight's error. Run starts
// it on a fresh goroutine rather than running it on the caller's: the
// inline variant made the perf benchmark's mix16-balanced setup_s 56%
// worse (median of 6 alternating pairs, 2-vCPU Xeon, Go 1.24.0).
func (s *Scheduler) lead(key string, j Job, f *flight, disk *diskCache) {
	var (
		res  sim.Result
		err  error
		bump func(*Stats)
	)
	defer func() {
		if p := recover(); p != nil {
			// A panic past execute (e.g. in the log append) still settles.
			err = &PanicError{Key: key, Value: p, Stack: string(debug.Stack())}
			bump = func(st *Stats) { st.Panics++ }
		}
		s.settle(key, f, res, err, bump)
	}()

	res, err = s.execute(key, j)
	if err != nil {
		bump = func(st *Stats) { st.Panics++ }
		return
	}
	bump = func(st *Stats) { st.Executed++ }
	if disk != nil {
		if werr := disk.write(key, j, res); werr != nil {
			s.count(func(st *Stats) { st.DiskErrors++ })
		}
	}
}

// execute runs the job under the pool. The deferred release returns the
// slot even when runFn panics; the panic itself is converted to a
// *PanicError so callers and flights see an error, not a crash.
func (s *Scheduler) execute(key string, j Job) (res sim.Result, err error) {
	s.pool.acquire()
	defer s.pool.release()
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Key: key, Value: p, Stack: string(debug.Stack())}
		}
	}()
	s.mu.Lock()
	fn := s.runFn
	s.mu.Unlock()
	return fn(j), nil
}

// settle publishes a finished flight: store the result (success only),
// wake waiters, bump a counter.
func (s *Scheduler) settle(key string, f *flight, r sim.Result, err error, bump func(*Stats)) {
	s.mu.Lock()
	if err == nil {
		s.mem[key] = stored{res: r}
	}
	delete(s.inflight, key)
	if bump != nil {
		bump(&s.stats)
	}
	s.mu.Unlock()
	f.res = r
	f.err = err
	close(f.done)
}

func (s *Scheduler) count(bump func(*Stats)) {
	s.mu.Lock()
	bump(&s.stats)
	s.mu.Unlock()
}

// cloneResult copies the Apps and DRAMBanks slices so callers cannot alias
// the stored value.
func cloneResult(r sim.Result) sim.Result {
	out := r
	out.Apps = append([]sim.AppResult(nil), r.Apps...)
	out.DRAMBanks = append([]mem.BankStats(nil), r.DRAMBanks...)
	return out
}
