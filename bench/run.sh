#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver from source inside
# the checkout (binary and Go build cache under .bench_build/, nothing
# outside the checkout is written) and execs it with the caller's flags.
# Run from the repository root: bash bench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/mpdp-bench" ./cmd/bench) >&2
cd "$root"
exec "$out/mpdp-bench" "$@"
