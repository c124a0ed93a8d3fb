#!/usr/bin/env sh
# benchdiff.sh — old-vs-new benchmark diff over the repository's pinned
# hot-path benchmark set, with a regression gate.
#
# Usage:
#   scripts/benchdiff.sh [base-ref]
#
# The base ref (default: origin/main, falling back to HEAD when origin/main
# does not resolve) is checked out into a throwaway git worktree and the
# pinned benchmarks run there ("old") and in the current working tree
# ("new"). Results land in $BENCHDIFF_DIR/{old,new}.txt. When benchstat is
# installed (CI installs it; `make benchdiff` degrades gracefully without
# it), its statistical comparison is printed; the pass/fail gate itself uses
# a built-in mean comparator so the script has no dependencies beyond the go
# toolchain.
#
# Gate: a pinned benchmark present in BOTH trees whose mean ns/op grew by
# more than BENCHDIFF_MAX_REGRESSION (default 0.25, i.e. 25%) fails the
# script. Benchmarks that exist only in the new tree are reported and pass
# trivially — a new benchmark has no baseline to regress against.
#
# Environment:
#   BENCHDIFF_BASE            base ref (overridden by argv[1])
#   BENCHDIFF_MAX_REGRESSION  fractional ns/op growth tolerated (default 0.25)
#   BENCHDIFF_DIR             output directory (default /tmp/relaxsched-benchdiff)
#   BENCHDIFF_COUNT           samples per micro benchmark (default 5)
#   BENCHDIFF_MACRO_COUNT     samples per macro benchmark (default 3)
#
# The pinned set mirrors the hot paths this repository optimizes:
#   - exactheap insert/pop churn (the storage under every heap-backed family,
#     including each MultiQueue sub-queue): the historical 1 024-item churn,
#     churn at executor occupancy (BenchmarkChurn/occ=32768) and the static
#     framework's preload-then-drain in label order and shuffled
#     (BenchmarkPreloadDrain)
#   - multiqueue scheduler churn (global and worker-affine handle paths) and
#     the handle-level preload-then-drain (BenchmarkWorkerHandlePreloadDrain)
#   - concurrent MIS, the static contract through the engine (1 worker:
#     pure hot-loop cost, adapter included)
#   - concurrent SSSP, the dynamic contract (1 worker)
#   - concurrent PageRank residual pushes (1 worker)
#   - the set-up path the benchmark's exec workloads repeat: parallel G(n,p)
#     generation plus CSR build on 100k vertices / 1M edges
#     (BenchmarkParallelGNP), orienting G(200k, 2M) by a priority
#     permutation, which greedy coloring does once at bind
#     (BenchmarkOrient), and the sequential greedy-coloring oracle on the
#     100k input, orientation included (BenchmarkSequentialColoring)
#   - the job service's benchmark job without the service: sequential MIS
#     bound to G(1000, 5000) and run once (BenchmarkNullJob), the per-job
#     cost any bind-time set-up would add to every svc-* job
# One-worker macro variants are pinned because CI containers have one CPU;
# see EXPERIMENTS.md "Profiling methodology". The gate compares per-benchmark
# MEDIANS, not means — shared CI boxes throw occasional 2x outlier samples
# and a median-of-5 shrugs those off.

set -eu

BASE_REF="${1:-${BENCHDIFF_BASE:-origin/main}}"
MAX_REGRESSION="${BENCHDIFF_MAX_REGRESSION:-0.25}"
OUT_DIR="${BENCHDIFF_DIR:-/tmp/relaxsched-benchdiff}"
COUNT="${BENCHDIFF_COUNT:-5}"
MACRO_COUNT="${BENCHDIFF_MACRO_COUNT:-3}"

REPO_ROOT="$(git rev-parse --show-toplevel)"
cd "$REPO_ROOT"

if ! git rev-parse --verify --quiet "$BASE_REF^{commit}" >/dev/null; then
    echo "benchdiff: base ref '$BASE_REF' does not resolve; falling back to HEAD" >&2
    BASE_REF=HEAD
fi
BASE_SHA="$(git rev-parse --short "$BASE_REF^{commit}")"

mkdir -p "$OUT_DIR"
OLD_TREE="$OUT_DIR/base-tree"
trap 'git worktree remove --force "$OLD_TREE" >/dev/null 2>&1 || true' EXIT
git worktree remove --force "$OLD_TREE" >/dev/null 2>&1 || true
git worktree add --quiet --force --detach "$OLD_TREE" "$BASE_REF"

# run_benches <tree-dir> <output-file>
# Runs the pinned set in one tree. A benchmark regex that matches nothing
# (e.g. a benchmark that does not exist at the base ref yet) produces no
# lines and no error, which is exactly the new-only case the gate tolerates.
run_benches() {
    tree="$1"
    out="$2"
    : >"$out"
    (
        cd "$tree"
        go test -run '^$' -benchmem -count "$COUNT" \
            -bench 'BenchmarkInsertDelete$|BenchmarkChurn$|BenchmarkPreloadDrain$' ./internal/sched/exactheap/
        go test -run '^$' -benchmem -count "$COUNT" \
            -bench 'BenchmarkConcurrentInsertDelete$|BenchmarkWorkerHandle' \
            ./internal/sched/multiqueue/
        go test -run '^$' -benchtime 1x -count "$MACRO_COUNT" \
            -bench 'BenchmarkConcurrentMIS/workers=1$' ./internal/algos/mis/
        [ -d internal/algos/sssp ] && go test -run '^$' -benchtime 1x -count "$MACRO_COUNT" \
            -bench 'BenchmarkConcurrentSSSP/workers=1$' ./internal/algos/sssp/
        [ -d internal/algos/pagerank ] && go test -run '^$' -benchtime 1x -count "$MACRO_COUNT" \
            -bench 'BenchmarkConcurrentPageRank/workers=1$' ./internal/algos/pagerank/
        go test -run '^$' -benchmem -count "$COUNT" \
            -bench 'BenchmarkParallelGNP$|BenchmarkOrient$' ./internal/graph/
        go test -run '^$' -benchmem -count "$COUNT" \
            -bench 'BenchmarkSequentialColoring$' ./internal/algos/coloring/
        go test -run '^$' -benchmem -count "$COUNT" \
            -bench 'BenchmarkNullJob$' ./internal/workload/
    ) | tee "$out.raw" | grep -E '^Benchmark' >"$out" || true
}

# Fail loudly on a broken build in either tree, instead of letting an empty
# result file pass the gate as "new-only".
(cd "$OLD_TREE" && go build ./...)
go build ./...

echo "benchdiff: running pinned benchmarks at base $BASE_REF ($BASE_SHA)..."
run_benches "$OLD_TREE" "$OUT_DIR/old.txt"
echo "benchdiff: running pinned benchmarks in the working tree..."
run_benches "$REPO_ROOT" "$OUT_DIR/new.txt"

echo
if command -v benchstat >/dev/null 2>&1; then
    benchstat "$OUT_DIR/old.txt" "$OUT_DIR/new.txt" || true
else
    echo "benchdiff: benchstat not installed; raw results in $OUT_DIR (CI prints the benchstat table)"
fi
echo

# The gate: compare median ns/op per benchmark name. FILENAME-keyed so an
# empty old.txt cannot silently shift the new results into the baseline.
awk -v maxreg="$MAX_REGRESSION" '
function median(vals, n,    i, j, tmp) {
    # insertion-sort the n values in place, return the middle one
    for (i = 2; i <= n; i++) {
        tmp = vals[i]
        for (j = i - 1; j >= 1 && vals[j] > tmp; j--) vals[j + 1] = vals[j]
        vals[j + 1] = tmp
    }
    if (n % 2) return vals[(n + 1) / 2]
    return (vals[n / 2] + vals[n / 2 + 1]) / 2
}
FILENAME == ARGV[1] {
    if ($4 == "ns/op") { ocnt[$1]++; oval[$1 "/" ocnt[$1]] = $3 }
    next
}
$4 == "ns/op" { ncnt[$1]++; nval[$1 "/" ncnt[$1]] = $3; if (!($1 in order)) { order[$1] = ++k } }
END {
    fail = 0
    for (i = 1; i <= k; i++) {
        for (name in order) if (order[name] == i) break
        for (s = 1; s <= ncnt[name]; s++) scratch[s] = nval[name "/" s]
        nmed = median(scratch, ncnt[name])
        if (!(name in ocnt)) {
            printf "  new-only   %-55s %14.1f ns/op (no baseline, passes)\n", name, nmed
            continue
        }
        for (s = 1; s <= ocnt[name]; s++) scratch[s] = oval[name "/" s]
        omed = median(scratch, ocnt[name])
        delta = (nmed - omed) / omed
        status = "ok"
        if (delta > maxreg) { status = "REGRESSION"; fail = 1 }
        printf "  %-10s %-55s %14.1f -> %14.1f ns/op  %+7.1f%% (median)\n", status, name, omed, nmed, 100 * delta
    }
    if (k == 0) { print "benchdiff: no benchmark results parsed"; exit 2 }
    if (fail) {
        printf "benchdiff: FAIL — median ns/op regression beyond %.0f%% versus base\n", 100 * maxreg
        exit 1
    }
    printf "benchdiff: PASS — all gated benchmarks within %.0f%% of base\n", 100 * maxreg
}
' "$OUT_DIR/old.txt" "$OUT_DIR/new.txt"
