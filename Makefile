# Targets mirror the CI jobs in .github/workflows/ci.yml.

GO ?= go

.PHONY: build test bench-module-check race bench sweep bench-smoke benchdiff profile fuzz-smoke serve serve-smoke serve-cluster serve-cluster-smoke crash-smoke fmt fmt-check vet lint doc check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository benchmark is a module of its own (benchmark/go.mod), so the
# root `go test ./...` never compiles it: vet and test it against the working
# tree whenever a package it imports changes.
bench-module-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Race-enabled tests on the packages with real concurrency: the engine, every
# scheduler family, the graph builders (the CSR build and Orient fan out
# goroutines that write disjoint slots), every algorithm (one loop serves
# both contracts), the workload registry, the job service (worker pool,
# graph cache, drain) and its daemon, the trace/metrics observability
# layer, and the end-to-end integration matrix.
race:
	$(GO) test -race ./internal/core/... ./internal/sched/... \
		./internal/graph/... \
		./internal/algos/... ./internal/workload/... \
		./internal/api/... ./internal/ranktrack/... \
		./internal/control/... ./internal/wal/... \
		./internal/trace/... ./internal/metricsexport/... \
		./internal/service/... ./cmd/relaxd/... \
		./internal/gateway/... ./cmd/relaxgw/... \
		./internal/integration/...

# Repository-level benchmarks: the theorem validation sweeps and the
# ablations (Table 1 and Figure 2 come from relaxsim and relaxbench).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Worker-scaling sweep: regenerates BENCH_concurrent.json across the tracked
# entries — MIS on the historical 100k G(n,p) instance, the million-vertex
# instance and the power-law instance; the dynamic-priority workloads
# (sssp, kcore) on the 100k and grid classes; and pagerank on the 100k and
# power-law classes (at the tracked tolerance 1e-6 over a reduced grid —
# push work scales with log(1/tol), see EXPERIMENTS.md). Later invocations
# merge into the file written by the first.
sweep:
	$(GO) run ./cmd/relaxbench -class hundredk,million,powerlaw -batches 1,4,16,64 -json BENCH_concurrent.json
	$(GO) run ./cmd/relaxbench -algo sssp,kcore -class hundredk,grid -batches 1,4,16,64 -append -json BENCH_concurrent.json
	$(GO) run ./cmd/relaxbench -algo pagerank -class hundredk,powerlaw -tol 1e-6 \
		-trials 1 -batches 16,64 -append -json BENCH_concurrent.json

# Short verified sweep for CI: single trial, two batch sizes, concurrent MIS
# on the hundredk and million classes plus sssp and pagerank on hundredk,
# every run checked against the sequential reference; the reports go to
# /tmp, never over the tracked BENCH_concurrent.json. Then the
# million-vertex concurrent MIS under the race detector. There is no
# throughput gate here: `make benchdiff` compares base and head on one
# machine.
bench-smoke:
	$(GO) run ./cmd/relaxbench -class hundredk,million -trials 1 -batches 16,64 \
		-json /tmp/relaxsched-bench-smoke.json
	$(GO) run ./cmd/relaxbench -algo sssp -class hundredk -trials 1 -batches 16,64 \
		-append -json /tmp/relaxsched-bench-smoke.json
	$(GO) run ./cmd/relaxbench -algo pagerank -class hundredk -tol 1e-6 -trials 1 -batches 16,64 \
		-append -json /tmp/relaxsched-bench-smoke.json
	RELAXSCHED_SMOKE_MILLION=1 $(GO) test -race -timeout 30m -v -run '^TestMillionVertexMISSmoke$$' ./internal/bench/

# Old-vs-new benchmark diff over the pinned hot-path set (sub-queue heap churn
# and preload-then-drain at executor occupancy, multiqueue churn, worker-affine
# handle churn, 1-worker concurrent mis, sssp and pagerank): the
# base ref (BASE, default origin/main) is benchmarked in a throwaway git
# worktree and compared against the working tree. Fails on a >25% median
# ns/op regression in any benchmark present in both trees; uses benchstat
# for the statistics table when installed (CI installs it). See
# EXPERIMENTS.md "Profiling methodology" for reading the output.
benchdiff:
	BENCHDIFF_BASE="$(BASE)" ./scripts/benchdiff.sh

# CPU+heap profile of a relaxbench run rendered as pprof top-25 tables.
# Defaults to concurrent MIS on the hundredk class; override with
# e.g. `make profile PROFILE_ARGS="-algo sssp -class grid -threads 2"`.
# Raw profiles stay in /tmp/relaxsched-profile for interactive `go tool
# pprof` sessions.
PROFILE_ARGS ?= -class hundredk -threads 1,2 -trials 1
PROFILE_DIR ?= /tmp/relaxsched-profile
profile: build
	@mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/relaxbench $(PROFILE_ARGS) \
		-cpuprofile $(PROFILE_DIR)/cpu.pprof -memprofile $(PROFILE_DIR)/mem.pprof
	@echo "--- CPU profile (top 25 by cumulative time) ---"
	$(GO) tool pprof -top -nodecount=25 -cum $(PROFILE_DIR)/cpu.pprof
	@echo "--- Heap profile (top 25 by in-use space) ---"
	$(GO) tool pprof -top -nodecount=25 -inuse_space $(PROFILE_DIR)/mem.pprof
	@echo "profiles written to $(PROFILE_DIR)/{cpu,mem}.pprof"

# Run the relaxd job service locally on the default port. Submit with e.g.
#   curl -s localhost:8080/v1/jobs -d '{"workload":"mis","mode":"concurrent",
#     "graph":{"n":100000,"edges":1000000,"seed":7}}'
serve:
	$(GO) run ./cmd/relaxd

# Service smoke, as run by CI: build the relaxd binary, boot it, drive a
# MIS and a PageRank job over real HTTP, assert both verify and that a
# repeated identical submit hits the graph cache, scrape the Prometheus
# exposition, fetch a finished job's trace, hit the -debug-addr expvar
# listener, then SIGTERM and require a clean drain (exit 0).
serve-smoke:
	RELAXSCHED_SMOKE_SERVE=1 $(GO) test -run '^TestServeSmokeBinary$$' -v ./cmd/relaxd/

# Run a 2-backend cluster locally: two relaxd nodes on 8081/8082 plus the
# relaxgw gateway on 8080. Submit through the gateway exactly as to a
# single node, e.g.
#   curl -s localhost:8080/v1/jobs -d '{"workload":"mis","mode":"concurrent",
#     "graph":{"n":100000,"edges":1000000,"seed":7}}'
# GET /v1/metrics on 8080 for the cluster aggregate (global rank error,
# per-backend rows). Ctrl-C stops all three.
serve-cluster:
	@trap 'kill 0' INT TERM; \
	$(GO) run ./cmd/relaxd -addr localhost:8081 & \
	$(GO) run ./cmd/relaxd -addr localhost:8082 & \
	sleep 1; \
	$(GO) run ./cmd/relaxgw -addr localhost:8080 \
		-backends http://localhost:8081,http://localhost:8082 & \
	wait

# Cluster smoke, as run by CI: build relaxd and relaxgw, boot two backends
# and the gateway, submit jobs through the gateway, assert graph-affinity
# routing via the owning node's cache hit and the cluster metrics
# aggregate, scrape the gateway's Prometheus exposition (distinct
# per-backend labels) and a job trace led by the gateway's submit hop,
# then SIGTERM all three and require clean exits.
serve-cluster-smoke:
	RELAXSCHED_SMOKE_CLUSTER=1 $(GO) test -run '^TestClusterSmokeBinary$$' -v ./cmd/relaxgw/

# Crash-injection smoke, as run by CI: build relaxd, run it with a
# write-ahead log, SIGKILL it at seeded random points under load, and after
# each restart assert zero lost acceptances and zero re-executed jobs
# (strict run with default segments, then a compaction-churn run with tiny
# segments), finishing with a torn-tail boot. RELAXSCHED_CRASH_SEED and
# RELAXSCHED_CRASH_ROUNDS tune the schedule; a CI seed reproduces locally.
crash-smoke:
	RELAXSCHED_SMOKE_CRASH=1 $(GO) test -run '^TestCrash(ReplaySmoke|CompactionChurn)Binary$$' -v ./internal/faultinject/

# 10-second fuzz of the edge-list parser, of the WAL record decoder and of
# the sub-queue heap against its sorted-slice model, as run by CI. (`go test
# -fuzz` takes one fuzz target per invocation.)
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=10s -run '^FuzzReadEdgeList$$' ./internal/graph/
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=10s -run '^FuzzWALDecode$$' ./internal/wal/
	$(GO) test -fuzz=FuzzHeapMatchesModel -fuzztime=10s -run '^FuzzHeapMatchesModel$$' ./internal/sched/exactheap/

fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis as run by CI's lint job (on Go 1.22 and 1.23). staticcheck
# is installed there with `go install honnef.co/go/tools/cmd/staticcheck`;
# locally the target degrades gracefully when the binary is absent.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Documentation build check: go vet plus rendering every package's godoc,
# running every Example function in the module (`go test` executes each and
# diff-checks it against its Output comment), plus a check that every
# relative link and every backticked repository path in the tracked
# markdown exists.
doc: vet
	@for pkg in $$($(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./...); do \
		$(GO) doc -all $$pkg >/dev/null || exit 1; \
	done
	$(GO) test -run '^Example' ./...
	./scripts/check-md-links.sh

check: fmt-check lint doc build test race bench-module-check
