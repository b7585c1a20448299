#!/usr/bin/env bash
# Builds the benchmark (and, through it, hpcserve) from this checkout and
# runs it; every argument passes through, e.g.
#
#   bash bench/run.sh --workload live --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and per-run files all stay under
# .bench_build/ at the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" -root "$root" "$@"
