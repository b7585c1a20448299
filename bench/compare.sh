#!/usr/bin/env bash
# Paired comparison of two revisions under the same benchmark code. Builds
# hpcserve at REV_A and REV_B in temporary git worktrees, builds the bench
# from the current tree, runs PAIRS pairs of every workload (seed i for pair
# i, alternating which side goes first) at the run length BENCHMARK.json
# declares, with -server-bin, and prints per workload and end-to-end metric
# each side's median and quartiles and the share of pairs B won, then each
# side's runs without a result or with a failed check.
#
#   bench/compare.sh REV_A REV_B [PAIRS]     # PAIRS defaults to 10
#
# A run that fails still counts: its pair is lost for that side. Each run's
# output stays under .bench_build/compare.*/results.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 REV_A REV_B [PAIRS]" >&2
	exit 2
fi
rev_a=$1
rev_b=$2
pairs=${3:-10}

root=$(cd "$(dirname "$0")/.." && pwd)
secs=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
if [ -z "$secs" ]; then
	echo "$0: no run_seconds in $root/BENCHMARK.json" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
work=$(mktemp -d "$out/compare.XXXXXX")

cleanup() {
	for side in A B; do
		if [ -d "$work/tree-$side" ]; then
			git -C "$root" worktree remove --force "$work/tree-$side" || true
		fi
	done
}
trap cleanup EXIT

build_server() { # side rev
	git -C "$root" worktree add --detach --quiet "$work/tree-$1" "$2"
	(cd "$work/tree-$1" && go build -o "$work/hpcserve-$1" ./cmd/hpcserve)
	git -C "$root" worktree remove --force "$work/tree-$1"
}
build_server A "$rev_a"
build_server B "$rev_b"
(cd "$root/bench" && go build -o "$work/bench" .)

res="$work/results"
mkdir -p "$res"
cp "$root/BENCHMARK.json" "$res/"
for ((i = 1; i <= pairs; i++)); do
	order="A B"
	if ((i % 2 == 0)); then
		order="B A"
	fi
	for wl in dashboard live ingest fleet; do
		for side in $order; do
			echo "pair $i/$pairs $wl $side" >&2
			run="$res/$i-$side-$wl"
			if ! "$work/bench" -root "$root" -workload "$wl" -seed "$i" -seconds "$secs" \
				-server-bin "$work/hpcserve-$side" >"$run.out" 2>"$run.err"; then
				echo "pair $i/$pairs $wl $side: bench failed, see $run.out and $run.err" >&2
			fi
			tail -n 1 "$run.out" >"$run.json"
		done
	done
done
"$work/bench" -summarize "$res"
echo "raw results: $res" >&2
