# One source of truth for local and CI commands: .github/workflows/ci.yml
# invokes these targets, so a green `make ci` locally means a green pipeline.

GO ?= go

.PHONY: all build test test-race lint vet fmt-check docs-check perf-check perf-ab profile bench bench-smoke serve-smoke allocs-gate paperfig ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -short -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

lint: vet fmt-check

# Documentation hygiene: gofmt/vet, doc comments on every exported
# identifier, and markdown link resolution (ARCHITECTURE.md, EXPERIMENTS.md
# and friends must not rot).
docs-check:
	sh scripts/docs_check.sh

# The perf/ benchmark is a nested module (its own go.mod), so the root
# `go test ./...` never builds it; vet and test it here so an API change
# in the packages it imports cannot break the benchmark unseen.
perf-check:
	cd perf && $(GO) vet ./... && $(GO) test ./...

# Paired perf runs of BASE against the working tree: PAIRS alternating
# pairs of perf/run.sh with PERF_FLAGS on both sides, then perf -compare
# and the host (scripts/perf_ab.sh).
#   make perf-ab BASE=HEAD~1 PERF_FLAGS='--workload mix4-paper-sampled --trace 0'
PAIRS ?= 10
PERF_FLAGS ?=
perf-ab:
	@test -n "$(BASE)" || { echo "usage: make perf-ab BASE=<ref> [PAIRS=10] [PERF_FLAGS=...]"; exit 2; }
	bash scripts/perf_ab.sh -n $(PAIRS) $(BASE) $(PERF_FLAGS)

# Where the detailed loop's time goes: CPU profiles of the balanced Mix16
# benchmark (BenchmarkRunMix16, 8 runs), whose shares track perf's
# mix16-balanced workload, and of the streaming Mix16 under ADAPT_bp32
# (BenchmarkRunMix16Streaming, 64 runs), whose shares track
# mix16-streaming and its shared substrate (arbiter, pools, DRAM), each
# followed by pprof's table of it. EXPERIMENTS.md quotes them. The test
# binary and both profiles go to PROFILE_DIR, by default a new temporary
# directory, whose name the target prints last.
profile:
	@dir=$${PROFILE_DIR:-$$(mktemp -d)}; mkdir -p "$$dir" && dir=$$(cd "$$dir" && pwd) && \
	$(GO) test -c -o "$$dir/sim.test" ./internal/sim && cd internal/sim && \
	"$$dir/sim.test" -test.run '^$$' -test.bench 'RunMix16$$' -test.benchtime 8x -test.cpuprofile "$$dir/mix16.prof" && \
	$(GO) tool pprof -top "$$dir/sim.test" "$$dir/mix16.prof" && \
	"$$dir/sim.test" -test.run '^$$' -test.bench 'RunMix16Streaming$$' -test.benchtime 64x -test.cpuprofile "$$dir/mix16streaming.prof" && \
	$(GO) tool pprof -top "$$dir/sim.test" "$$dir/mix16streaming.prof" && \
	echo "profiles: $$dir/mix16.prof $$dir/mix16streaming.prof"

# Full benchmark sweep at Tiny fidelity (prints every regenerated table).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/experiments

# CI smoke: regenerate a representative figure set at Tiny fidelity
# through the shared scheduler and emit the structured artifacts CI
# uploads (BENCH_paperfig_*.json, with scheduler counters). A warm re-run
# of Figure 1 on the same .simcache must be served wholly from the store:
# its BENCH_paperfig_fig1_warm.json must read executed == 0 and
# disk_hits == submitted > 0, or the target fails. Then come one-shot
# benchmarks (-benchtime 1x: a smoke that the benches run, not a timing
# claim; perf/ is the timed benchmark), each run once, kept as BENCH_*.txt:
# BENCH_policy_victim.txt for the policy layer (victim selection and fill
# churn), BENCH_sim_substrate.txt for the simulator — the balanced Mix16
# and the substrate-bound streaming Mix16 serial runs — and
# BENCH_hotpath.txt for the MSHR/write-back pool, all three with -benchmem;
# BENCH_tracegen.txt for trace generation, and BENCH_sampling.txt with the
# sampled-fidelity headline (speedup + ipc-err-pct vs the detailed
# reference at paper-scale budgets) as custom benchmark metrics.
bench-smoke: build
	$(GO) run ./cmd/paperfig -fig 1 -tiny -stats -cache-dir .simcache -json BENCH_paperfig_fig1.json
	$(GO) run ./cmd/paperfig -fig 6 -tiny -stats -cache-dir .simcache -json BENCH_paperfig_fig6.json
	$(GO) run ./cmd/paperfig -fig 1 -tiny -stats -cache-dir .simcache -json BENCH_paperfig_fig1_warm.json
	python3 -c "import json,sys; s=json.load(open(sys.argv[1]))['scheduler']; ok=s['executed'] == 0 and s['submitted'] > 0 and s['disk_hits'] == s['submitted']; sys.exit(0 if ok else 'bench-smoke: warm Figure 1 re-run was not served wholly from the store: %s' % s)" BENCH_paperfig_fig1_warm.json
	$(GO) test -bench 'Victim|FillChurn' -benchmem -benchtime 1x -run '^$$' ./internal/policy > BENCH_policy_victim.txt || { cat BENCH_policy_victim.txt; exit 1; }
	cat BENCH_policy_victim.txt
	$(GO) test -bench 'RunMix16' -benchmem -benchtime 1x -run '^$$' ./internal/sim > BENCH_sim_substrate.txt || { cat BENCH_sim_substrate.txt; exit 1; }
	cat BENCH_sim_substrate.txt
	$(GO) test -bench 'TimedPool$$' -benchmem -benchtime 1x -run '^$$' ./internal/cache > BENCH_hotpath.txt || { cat BENCH_hotpath.txt; exit 1; }
	cat BENCH_hotpath.txt
	$(GO) test -bench 'BenchmarkNext' -benchmem -benchtime 200000x -run '^$$' ./internal/trace > BENCH_tracegen.txt || { cat BENCH_tracegen.txt; exit 1; }
	cat BENCH_tracegen.txt
	$(GO) test -bench 'SamplingFidelity$$' -benchtime 1x -run '^$$' ./internal/sim > BENCH_sampling.txt || { cat BENCH_sampling.txt; exit 1; }
	cat BENCH_sampling.txt

# End-to-end smoke of the serving layer: paperfigd up, `paperfig -server`
# output byte-identical to a local run, SIGTERM drains in-flight work.
serve-smoke: build
	sh scripts/serve_smoke.sh

# CI allocation gate: the measured simulation loop must be allocation-free
# at steady state (testing.AllocsPerRun == 0, see internal/sim/alloc_test.go),
# building a machine must make exactly its pinned number of allocations
# (TestConstructionAllocs), and the policy/sim hot-path benchmarks must run
# with -benchmem so a regression shows up as allocs/op in the artifact, not
# just as time.
allocs-gate:
	$(GO) test -run 'TestMeasuredLoopAllocFree|TestConstructionAllocs' -count=1 -v ./internal/sim
	$(GO) test -bench 'Victim$$|VictimAllWays$$' -benchmem -benchtime 1x -run '^$$' ./internal/policy
	$(GO) test -bench 'RunMix16$$' -benchmem -benchtime 1x -run '^$$' ./internal/sim

# Quick-fidelity regeneration of everything (minutes).
paperfig:
	$(GO) run ./cmd/paperfig -all -stats -cache-dir .simcache -json paperfig.json

ci: build lint docs-check test test-race perf-check

clean:
	rm -rf .simcache BENCH_*.json BENCH_*.txt paperfig.json
