#!/bin/sh
# Chaos gate: the crash-recovery and overload-resilience tests, under the
# race detector. These are the tests that SIGKILL a live server, tear WAL
# tails, kill shards mid-query to force standby failover or mid-ingest to
# pin that an acknowledged event reaches the store once, pin one store
# append per shard per request and the durable set a cross-shard WAL
# failure leaves, stall a WAL write past the request deadline, flood
# admission queues, race duplicate idempotency keys and identical queries
# on one single-flight cache (waiters leaving at their own deadline, a
# panicking compute releasing its key), and shut down under fault
# injection, with an unused connection open or with a write arriving as
# the drain begins, hold the serve loop's upkeep round to the snapshot
# policy for the root and a tenant created mid-serve, and hold every
# /metrics counter non-decreasing across a kill and a promotion — the ones most likely
# to catch ordering bugs that a polite test run never trips. Shared by
# verify.sh and the CI chaos job so the two can never drift. CHAOS_COUNT
# reruns the suite (flake hunting); defaults to 1.
set -eu

count="${CHAOS_COUNT:-1}"

go test -race -count="$count" \
    -run 'TestKillAndRecover|TestShedding|TestConcurrencyNeverExceeded|TestBreaker|TestShutdownJoins|TestServerJournalRecovery|TestChaos|TestLiveCondProb|TestConcurrentReadersDuringAppend|TestRebuildFallbackUnderConcurrentSnapshotReaders|TestKillOneShardPartialThenPromotionIdentity|TestSupervisorAutoFailover|TestCondProbScatterPartialAndMergeIdentity|TestCorrelationsPartialOnShardKill|TestShardChaos|TestStandby|TestTwoTenant|TestTenantReadOnlySiblingWritable|TestRouteContract|TestCompareCircuitOpen503|TestShardedBreakerGauge|TestAnomaliesLayoutOutOfRange|TestServeListenerClosesJournals|TestOneShardLayoutsAgree|TestShardKilledMidObserveAppendsOnce|TestRiskRouteContract|TestOneStoreAppendPerShard|TestSlowWriteReportsItsOutcome|TestCrossShardWALFailureDurableSet|TestShutdownClosesUnusedConns|TestIdempotency|TestDiskFullIdempotencyNotPoisoned|TestSingleflightDedup|TestSingleflightWaiterOwnDeadline|TestPanickingPartReleasesKey|TestShutdownAppliesLateEventsPost|TestUpkeepSnapshotPolicy|TestFailoverCountersMonotone' \
    ./cmd/hpcserve/ ./internal/server/ ./internal/faultinject/ ./internal/store/ ./internal/risk/
