#!/bin/sh
# Crash-consistency gate: the storage-fault torture battery, under the race
# detector. Enumerates every crash point of the WAL-append + snapshot +
# compaction pipeline over the in-memory fault filesystem (tear and bit-flip
# variants included), plus the fsyncgate, ENOSPC-rollback, and read-only-
# degradation tests. Leader recovery and failover share one replay (a
# standby promoted over the WAL directory), so the standby tests and the
# mid-rotation recovery test run here too. Shared by verify.sh and the CI
# crashgate job so the two can never drift. CRASHGATE_DEEP=1 widens the
# sweep (~3x the crash points) for the nightly run.
set -eu

deep="${CRASHGATE_DEEP:-}"

CRASHGATE_DEEP="$deep" go test -race \
    -run 'TestCrashConsistencySweep|TestStandby|TestRecoveryAfterCrashMidRotation|TestFsyncGatePoisonsLog|TestAppendENOSPCRollsBackAndRecovers|TestAppendShortWriteRollsBack|TestRotateENOSPCReattachesTail|TestLogOverMemFSEndToEnd|TestMemFS|TestInject|TestDiskFull|TestKillAndRecoverDiskFull|TestReadOnly' \
    ./internal/iofault/ ./internal/wal/ ./internal/risk/ ./internal/server/ ./internal/client/ ./cmd/hpcserve/
