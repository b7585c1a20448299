#!/bin/sh
# Chaos gate: the crash-recovery and overload-resilience tests, under the
# race detector. These are the tests that SIGKILL a live server, tear WAL
# tails, kill shards mid-query to force standby failover, flood admission
# queues, and shut down under fault injection — the ones most likely to
# catch ordering bugs that a polite test run never trips. Shared by
# verify.sh and the CI chaos job so the two can never drift. CHAOS_COUNT
# reruns the suite (flake hunting); defaults to 1.
set -eu

count="${CHAOS_COUNT:-1}"

go test -race -count="$count" \
    -run 'TestKillAndRecover|TestShedding|TestConcurrencyNeverExceeded|TestBreaker|TestShutdownJoins|TestServerJournalRecovery|TestChaos|TestLiveCondProb|TestConcurrentReadersDuringAppend|TestRebuildFallbackUnderConcurrentSnapshotReaders|TestKillOneShardPartialThenPromotionIdentity|TestSupervisorAutoFailover|TestCondProbScatterPartialAndMergeIdentity|TestCorrelationsPartialOnShardKill|TestShardChaos|TestStandby|TestTwoTenant|TestTenantReadOnlySiblingWritable|TestRouteContract|TestCompareCircuitOpen503|TestShardedBreakerGauge|TestAnomaliesLayoutOutOfRange' \
    ./cmd/hpcserve/ ./internal/server/ ./internal/faultinject/ ./internal/store/ ./internal/risk/
