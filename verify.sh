#!/bin/sh
# Tier-1 verification: everything a change must pass before it lands.
# Referenced from ROADMAP.md. CI (.github/workflows/ci.yml) runs the same
# gates as separate jobs, sharing the scripts/ helpers so the two can never
# drift, plus this script itself as one job.
set -eux

dir=$(dirname "$0")

# Formatting gate: gofmt-clean or fail, listing offenders.
"$dir/scripts/fmt.sh"

go vet ./...
go build ./...
# bench/ is its own module, so ./... never compiles it: vet and build it
# here so an API change cannot break the benchmark unnoticed.
(cd "$dir/bench" && go vet ./... && go build -o /dev/null .)
go test -race ./...

# Bench smoke: every benchmark must still compile and run one iteration.
go test -bench=. -benchtime=1x -run='^$' ./...

# Fuzz smoke: targets listed in scripts/fuzz_targets.txt, 5s each by
# default (FUZZTIME overrides).
"$dir/scripts/fuzzsmoke.sh"

# Chaos gate: crash-recovery and overload tests under -race (kill-and-
# recover, shedding, breaker, shutdown-under-chaos). CHAOS_COUNT overrides
# the rerun count.
"$dir/scripts/chaos.sh"

# Crash-consistency gate: crash-point enumeration over the WAL + snapshot
# pipeline (tears, bit flips, fsyncgate, ENOSPC) plus the read-only-
# degradation tests, under -race. CRASHGATE_DEEP=1 widens the sweep.
"$dir/scripts/crashgate.sh"

# Bench regression gate: kernel ns/op vs the committed BENCH_results.json
# (TOLERANCE overrides), and indexed kernels must keep MIN_SPEEDUP over the
# naive reference.
"$dir/scripts/benchgate.sh"

# Replay SLO gate: open-loop quick-catalog replay against a live in-process
# hpcserve, CO-corrected p99 and error rates vs the committed
# REPLAY_baseline.json (REPLAY_TOLERANCE / REPLAY_P99_SLACK /
# REPLAY_MIN_ACCEL override).
"$dir/scripts/replaygate.sh"
