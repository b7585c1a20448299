#!/bin/sh
# Crash-consistency gate: the storage-fault torture battery, under the race
# detector. Enumerates every crash point of the WAL-append + snapshot +
# compaction pipeline over the in-memory fault filesystem (tear and bit-flip
# variants included), plus the fsyncgate, ENOSPC-rollback, and read-only-
# degradation tests. Leader recovery and failover share one replay (a
# standby promoted over the WAL directory), so the standby tests, the
# sealed-segment corruption test (Open and a follower refuse it alike) and the
# mid-rotation recovery test run here too, as does the serve loop's
# interval-policy flush (acknowledged appends survive a power loss after a
# quiet spell), and the durable-write helper behind snapshot.json and
# tenant.json is crashed after each of its operations, with the boot sweep
# of the temps such a crash strands (SweepTemps, and the registry's sweep
# of .tenant-* before it reads manifests). Shared by verify.sh
# and the CI crashgate job so the two can never drift. CRASHGATE_DEEP=1 widens the
# sweep (~3x the crash points) for the nightly run.
set -eu

deep="${CRASHGATE_DEEP:-}"

CRASHGATE_DEEP="$deep" go test -race \
    -run 'TestCrashConsistencySweep|TestStandby|TestSealedSegment|TestRecoveryAfterCrashMidRotation|TestFsyncGatePoisonsLog|TestAppendENOSPCRollsBackAndRecovers|TestAppendShortWriteRollsBack|TestRotateENOSPCReattachesTail|TestLogOverMemFSEndToEnd|TestMemFS|TestInject|TestDiskFull|TestKillAndRecoverDiskFull|TestReadOnly|TestUpkeepFlushesIntervalWAL|TestWriteFileAtomicCrashPoints|TestSweepTemps|TestOpenAllSweepsManifestTemps' \
    ./internal/iofault/ ./internal/wal/ ./internal/risk/ ./internal/registry/ ./internal/server/ ./internal/client/ ./cmd/hpcserve/
