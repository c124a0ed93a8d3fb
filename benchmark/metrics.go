package main

import (
	"encoding/json"
	"fmt"
)

// This file is the benchmark's contract: the workload names, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root is generated from these
// tables (`go run ./benchmark -contract`) and a test pins the two
// together, so a name cited by a later issue exists in exactly one place.

// metricDef names one metric. Bound is set for end-to-end metrics only:
// the share of the parent's median by which the metric may worsen before
// a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

const (
	wlExecStatic  = "exec-static"
	wlExecDynamic = "exec-dynamic"
	wlSvcHot      = "svc-hot"
	wlSvcFleet    = "svc-durable-fleet"
)

var workloadDefs = []workloadDef{
	{wlExecStatic, "mis and coloring on the static framework (core.RunConcurrent): preload everything then drain; core+sched do all the work, service/wal/api/gateway none"},
	{wlExecDynamic, "sssp, kcore, pagerank on the dynamic engine (core.RunDynamicConcurrent): re-insertion and stale pops; the grid adds a high-diameter input where workers starve"},
	{wlSvcHot, "null jobs on one in-process node over loopback HTTP, no WAL, no gateway: api+service do all the work, core almost none; bypass workload for WAL/gateway changes"},
	{wlSvcFleet, "the same null job through a gateway over two WAL-backed nodes: adds exactly the gateway hop, the second round trip and the fsync that svc-hot lacks"},
}

// runSeconds is how long one run measures; the driver passes it back as
// --seconds.
const runSeconds = 20

// endToEnd lists what a user of the system waits for. Every run prints
// every one of them (the driver requires it); the workload that does not
// exercise a metric fills it as contractMetrics documents.
//
// Every bound sits at the contract's ceiling, not at the 10 % the issue
// proposed. A bound has to hold on every workload, including those that
// fill the metric from their throughput, and svc-durable-fleet's
// throughput follows the sandbox's fsync: its run-to-run spread is 7-15 %.
// The box also has noisy stretches in which a solve time that normally
// spreads 1.5 % spread 12 %. README.md has the measured spreads; -compare
// prints them beside every verdict, and that is the resolution a claim is
// judged at.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mis_solve_s", "s", "lower", 0.25},
	{"coloring_solve_s", "s", "lower", 0.25},
	{"sssp_solve_s", "s", "lower", 0.25},
	{"sssp_grid_solve_s", "s", "lower", 0.25},
	{"kcore_solve_s", "s", "lower", 0.25},
	{"pagerank_solve_s", "s", "lower", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"submit_latency_p50_ms", "ms", "lower", 0.25},
	{"job_latency_p50_ms", "ms", "lower", 0.25},
	{"job_latency_p99_ms", "ms", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced pass, named
// <module>.<metric>. They carry no bound. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"sched.drain_ns_per_item", "ns", "lower", 0},
	{"sched.churn_ns_per_item", "ns", "lower", 0},
	{"sched.seqmodel_rank_error_mean", "count", "lower", 0},
	{"sched.steals", "count", "lower", 0},
	{"sched.global_fallbacks", "count", "lower", 0},
	{"sched.empty_polls", "count", "lower", 0},
	{"sched.jobqueue_ns_per_op", "ns", "lower", 0},

	{"core.useful_pop_ratio", "ratio", "higher", 0},
	{"core.seqmodel_wasted", "count", "lower", 0},
	{"core.ns_per_pop", "ns", "lower", 0},
	{"core.w1_overhead_x", "x", "lower", 0},

	{"workload.bind_s", "s", "lower", 0},
	{"workload.sequential_s", "s", "lower", 0},
	{"workload.verify_s", "s", "lower", 0},

	{"graph.build_s", "s", "lower", 0},
	{"graph.build_edges_per_s", "1/s", "higher", 0},

	{"service.inproc_submit_us_p50", "us", "lower", 0},
	{"service.handler_self_us_p50", "us", "lower", 0},
	{"service.status_handler_us_p50", "us", "lower", 0},
	{"service.queue_wait_us_p50", "us", "lower", 0},
	{"service.queue_wait_us_p99", "us", "lower", 0},
	{"service.cache_lookup_us_p50", "us", "lower", 0},
	{"service.exec_us_p50", "us", "lower", 0},
	{"service.rank_error_mean", "count", "lower", 0},
	{"service.rank_error_max", "count", "lower", 0},
	{"service.cache_hit_ratio", "ratio", "higher", 0},
	{"service.rejected", "count", "lower", 0},
	{"service.polls_per_job", "count", "lower", 0},

	{"wal.sync_wait_us_p50", "us", "lower", 0},
	{"wal.sync_wait_us_p99", "us", "lower", 0},
	{"wal.group_commit_factor", "x", "higher", 0},
	{"wal.fsyncs_per_job", "count", "lower", 0},
	{"wal.bytes_per_job", "bytes", "lower", 0},
	{"wal.append_alone_us_p50", "us", "lower", 0},
	{"wal.replay_s", "s", "lower", 0},
	{"wal.replay_records_per_s", "1/s", "higher", 0},

	{"api.submit_rt_self_us_p50", "us", "lower", 0},
	{"api.status_rt_self_us_p50", "us", "lower", 0},
	{"api.hop_self_us_p50", "us", "lower", 0},
	{"api.stub_rt_us_p50", "us", "lower", 0},
	{"api.submit_bytes", "bytes", "lower", 0},

	{"gateway.self_us_p50", "us", "lower", 0},
	{"gateway.status_self_us_p50", "us", "lower", 0},
	{"gateway.backend_rt_us_p50", "us", "lower", 0},
	{"gateway.global_rank_error_mean", "count", "lower", 0},
	{"gateway.max_backend_share", "ratio", "lower", 0},

	{"trace.jobtrace_rt_us_p50", "us", "lower", 0},
	{"metricsexport.scrape_us_p50", "us", "lower", 0},
	{"trace.bench_overhead_ratio", "ratio", "higher", 0},

	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.cpu_s", "s", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.allocs_per_op", "count", "lower", 0},
	{"process.generator_lag_ms_p99", "ms", "lower", 0},
	{"process.ledger_residual_ratio", "ratio", "lower", 0},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// contractJSON renders BENCHMARK.json from the tables above.
func contractJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("rendering contract: %w", err)
	}
	return append(b, '\n'), nil
}
