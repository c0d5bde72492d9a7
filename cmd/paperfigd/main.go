// Command paperfigd serves the paper's experiments over HTTP so many
// clients share one scheduler, one in-memory result tier, and one on-disk
// store. Start it once per machine and point paperfig at it:
//
//	paperfigd -addr :8090 -cache-dir .simcache &
//	paperfig -fig 3 -tiny -server http://localhost:8090
//
// Endpoints (see internal/serve): POST /v1/tables streams experiment
// tables as NDJSON; GET /statsz and /metrics expose scheduler and store
// observability; GET /healthz is the liveness probe. At startup the store's
// append-only log is loaded into the scheduler's result map; each executed
// job appends one line, and the daemon never rewrites, compacts or caps
// the store.
//
// Flags:
//
//	-addr ADDR            listen address            (default :8090)
//	-cache-dir DIR        segment store root        (default .simcache, "" = off)
//	-parallel N           scheduler worker width    (default GOMAXPROCS)
//	-drain-timeout DUR    graceful shutdown budget  (default 2m)
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, in-flight
// requests finish (bounded by -drain-timeout), and the process exits 0.
// Every simulation runs on behalf of a waiting request, so draining the
// requests drains the scheduler too. Clients that arrived before the
// signal get their answers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/schedule"
	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8090", "listen address")
		cacheDir     = flag.String("cache-dir", schedule.DefaultCacheDir, "on-disk segment store root (empty disables the disk tier)")
		parallel     = flag.Int("parallel", 0, "scheduler worker pool width (0 = GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "graceful shutdown budget for in-flight requests")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags)

	// Experiment harnesses route through the shared scheduler, so the
	// server must configure and serve that same instance.
	sched := schedule.Shared()
	if *parallel > 0 {
		sched.SetPoolSize(*parallel)
	}

	srv, err := serve.New(serve.Config{
		Scheduler: sched,
		CacheDir:  *cacheDir,
		Log:       logger,
	})
	if err != nil {
		logger.Fatalf("paperfigd: %v", err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()

	logger.Printf("paperfigd: listening on %s (cache-dir=%q, schema=%s)", *addr, *cacheDir, schedule.KeySchema)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		// ListenAndServe only returns on failure before a signal arrived.
		logger.Fatalf("paperfigd: %v", err)
	case s := <-sig:
		logger.Printf("paperfigd: %s received, draining (budget %s)", s, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Printf("paperfigd: shutdown: %v", err)
		os.Exit(1)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("paperfigd: %v", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "paperfigd: drained, exiting")
}
