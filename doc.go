// Package relaxsched is a Go reproduction of "Relaxed Schedulers Can
// Efficiently Parallelize Iterative Algorithms" (Alistarh, Brown, Kopinsky,
// Nadiradze; PODC 2018, arXiv:1808.04155).
//
// The library implements one execution engine serving two contracts — the
// paper's framework for iterative algorithms with explicit dependencies,
// run as an adapter over the engine's dynamic-priority contract
// (internal/core) — the relaxed priority
// schedulers it builds on — MultiQueue, SprayList, a deterministic k-bounded
// queue, an exact heap, and a fetch-and-add FIFO baseline
// (internal/sched/...) — the graph substrate (internal/graph), and the
// workloads the paper analyzes plus the extensions it calls for: greedy MIS,
// maximal matching, greedy coloring, list contraction, Knuth shuffle, and
// the dynamic-priority workloads SSSP (optional Δ-stepping bucketing),
// k-core decomposition, and residual-push PageRank (internal/algos/...).
//
// Every schedulable workload registers a descriptor in internal/workload —
// the registry that ties algorithms to the engine, schedulers, CLIs and the
// benchmark harness. cmd/relaxrun runs any registered workload over an
// edge-list graph in any execution mode; cmd/relaxbench and internal/bench
// run the worker-scaling sweep behind the paper's Figure 2 and
// BENCH_concurrent.json; cmd/relaxsim and internal/sim regenerate Table 1.
//
// On the serving path, internal/service and cmd/relaxd expose the registry
// as a long-running job service: the pending-job queue is itself an
// internal/sched scheduler (exact, MultiQueue, k-bounded, FIFO — or auto,
// where the internal/control feedback controller retunes the queue's rank
// bound and the engine's batch size online against operator rank-error
// and p99-latency SLOs), with per-job rank error and queue latency
// measured, a graph cache keyed by canonical generator spec, bounded
// admission and graceful drain. The wire
// contract lives in internal/api — the transport-agnostic Dispatcher
// interface, the wire types, the JSON error envelope, a typed client and
// the versioned /v1 HTTP handler — shared by the daemon, the tools and
// internal/gateway + cmd/relaxgw, a cluster gateway that shards jobs
// across N relaxd backends by consistent hash of the graph key and
// measures the global rank error that emerges from per-node queues (the
// MultiQueue construction lifted to the fleet); cmd/relaxload is the
// closed-loop load generator for either. See ARCHITECTURE.md for the
// layer diagram and the how-to-add-a-workload walkthrough, and
// EXPERIMENTS.md for the measurement methodology.
//
// The root package contains no code; it exists to carry this documentation
// and the repository-level benchmarks in bench_test.go, which regenerate
// every table and figure of the paper's evaluation.
package relaxsched
