#!/bin/sh
# Bench regression gate with a same-host reference. Builds hpcbench from
# BENCH_BASE (a git revision, default HEAD) in a temporary checkout and from
# the working tree, then times the kernel benches of the two in sixteen
# interleaved pairs of quick runs, alternating which side runs first. Fails
# when any kernel bench's median change-over-base ns/op ratio across the
# pairs exceeds 1+TOLERANCE, or when a median allocs/op or bytes/op passes
# its allocCeilings or bytesCeilings entry; then, in one full quick run of
# the working tree, when an indexed kernel's speedup over its naive
# reference drops below MIN_SPEEDUP (or its speedupFloors entry). Judging
# against runs from the same host, minutes apart, cancels the host drift
# that makes a committed BENCH_results.json an unreliable reference. One
# quick run's kernel timings vary by up to +-25% from process to process,
# hence the many pairs.
# Shared by verify.sh and CI.
set -eu

dir=$(dirname "$0")
repo=$(cd "$dir/.." && pwd)
tolerance="${TOLERANCE:-0.25}"
min_speedup="${MIN_SPEEDUP:-1.5}"
base="${BENCH_BASE:-HEAD}"
pairs=16
# The kernel benches, plus risk/topk-10 for its alloc ceiling, the
# one-event write path (store-append, ingest over HTTP) and risk/top over
# HTTP for their bytes ceilings, and the served-table boot load.
kernels='/indexed$|^condprob/any-any/system-month$|^risk/topk-10$|^store-append/event$|^server/ingest-http/|^server/risk-top-http$|^boot/'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git -C "$repo" archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/hpcbench-base" ./cmd/hpcbench)
(cd "$repo" && go build -o "$tmp/hpcbench-change" ./cmd/hpcbench)

bases=""
changes=""
i=1
while [ "$i" -le "$pairs" ]; do
    order="base change"
    if [ $((i % 2)) -eq 0 ]; then
        order="change base"
    fi
    for side in $order; do
        if ! "$tmp/hpcbench-$side" -quick -bench "$kernels" -out "$tmp/$side-$i.json" 2>"$tmp/$side.log"; then
            cat "$tmp/$side.log" >&2
            exit 1
        fi
    done
    bases="$bases${bases:+,}$tmp/base-$i.json"
    changes="$changes${changes:+,}$tmp/change-$i.json"
    i=$((i + 1))
done

echo "benchgate: $pairs interleaved pairs, working tree vs $base" >&2
"$tmp/hpcbench-change" -base-reports "$bases" -reports "$changes" -tolerance "$tolerance"
"$tmp/hpcbench-change" -quick -min-speedup "$min_speedup" -out "$tmp/full.json"
