#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Everything the Go toolchain writes (build cache,
# telemetry, the binary) and everything the benchmark writes (WAL
# directories) goes under .bench_build at the root of the checkout, so a
# run touches nothing outside it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

# The checkout a driver runs this from is not a git repository, so the
# commit is read here, where it can fail quietly, and not by the Go tool.
export BENCH_COMMIT="${BENCH_COMMIT:-$(git -C "$root" rev-parse HEAD 2>/dev/null || true)}"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local GOWORK=off

# A cached build is a fraction of a second; the first one in a checkout
# compiles the standard library too.
(cd "$root/benchmark" && go build -buildvcs=false -o "$out/relaxbench" .) >&2

cd "$root"
exec "$out/relaxbench" "$@"
