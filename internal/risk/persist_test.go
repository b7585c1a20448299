package risk

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// snapJSON renders an engine snapshot for bit-identity comparisons: two
// engines with equal serialized snapshots answer every query identically
// (scoring is a pure function of table + window + events).
func snapJSON(t *testing.T, e *Engine) string {
	t.Helper()
	data, err := json.Marshal(persistedSnapshot{WireSnapshot: SnapshotJSON(e.Snapshot())})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSnapshotFileBytesStable pins snapshot.json's encoding: a fixed
// snapshot encodes to exactly these bytes, written by the format's first
// implementation, and those bytes decode back to the same snapshot, so files
// written by either side of a change to the encoder read on the other.
func TestSnapshotFileBytesStable(t *testing.T) {
	at := time.Date(2004, 3, 5, 6, 7, 8, 123456789, time.UTC)
	savedAt := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, tc := range []struct {
		snap Snapshot
		want string
	}{{
		Snapshot{
			Window: trace.Day, Observed: 3, Dropped: 1, LastEvent: at,
			Active: []trace.Failure{
				{System: 2, Node: 17, Time: at.Add(-time.Hour), Category: trace.Hardware, HW: trace.Memory, Downtime: 90 * time.Minute},
				{System: 2, Node: 3, Time: at, Category: trace.Software, SW: trace.PFS},
			},
		},
		`{"format":1,"saved_at":"2026-01-02T03:04:05Z","wal_applied":7,"window_ns":86400000000000,"observed":3,"dropped":1,"last_event":"2004-03-05T06:07:08.123456789Z","active":[{"s":2,"n":17,"t":"2004-03-05T05:07:08.123456789Z","c":2,"hw":2,"d":5400000000000},{"s":2,"n":3,"t":"2004-03-05T06:07:08.123456789Z","c":5,"sw":3}]}`,
	}, {
		Snapshot{Window: trace.Week},
		`{"format":1,"saved_at":"2026-01-02T03:04:05Z","wal_applied":7,"window_ns":604800000000000,"observed":0,"dropped":0,"last_event":"0001-01-01T00:00:00Z","active":[]}`,
	}} {
		data, err := encodeSnapshot(tc.snap, 7, savedAt)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.want {
			t.Errorf("snapshot bytes changed:\n got %s\nwant %s", data, tc.want)
		}
		snap, applied, err := decodeSnapshot([]byte(tc.want))
		if err != nil {
			t.Fatal(err)
		}
		again, err := encodeSnapshot(snap, applied, savedAt)
		if err != nil || string(again) != tc.want {
			t.Errorf("decoded file re-encodes as %s (%v), want %s", again, err, tc.want)
		}
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	events := []trace.Failure{
		{System: 1, Node: 0, Time: day(90, 3).Add(123456789 * time.Nanosecond), Category: trace.Hardware, HW: trace.Memory, Downtime: 90 * time.Minute},
		{System: 1, Node: 3, Time: day(91), Category: trace.Software, SW: trace.PFS},
		{System: 1, Node: 2, Time: day(92), Category: trace.Environment, Env: trace.Chillers},
		{System: 1, Node: 1, Time: day(93), Category: trace.Undetermined},
	}
	for _, want := range events {
		got, err := DecodeEvent(EncodeEvent(want))
		if err != nil {
			t.Fatalf("DecodeEvent: %v", err)
		}
		if !got.Time.Equal(want.Time) {
			t.Fatalf("time %v != %v", got.Time, want.Time)
		}
		got.Time = want.Time // Equal but different location pointers
		if got != want {
			t.Fatalf("round trip %+v != %+v", got, want)
		}
	}
	if _, err := DecodeEvent([]byte("{not json")); err == nil {
		t.Fatal("DecodeEvent accepted garbage")
	}
}

// liveEvents is a deterministic post-dataset event feed.
func liveEvents(n int) []trace.Failure {
	cats := []trace.Category{trace.Hardware, trace.Software, trace.Network, trace.Human}
	out := make([]trace.Failure, 0, n)
	for i := 0; i < n; i++ {
		f := trace.Failure{
			System:   1,
			Node:     i % 4,
			Time:     day(98).Add(time.Duration(i) * 13 * time.Minute),
			Category: cats[i%len(cats)],
		}
		if f.Category == trace.Hardware {
			f.HW = trace.CPU
		}
		out = append(out, f)
	}
	return out
}

func openTestJournal(t *testing.T, dir string, policy checkpoint.Policy) (*Journal, RecoveryStats) {
	t.Helper()
	j, stats, err := OpenJournal(JournalConfig{
		Engine:         testEngine(t),
		WAL:            wal.Options{Dir: dir},
		SnapshotPolicy: policy,
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j, stats
}

// TestJournalRecoveryEquivalence is the crash-safety contract: feed a
// journal, drop it without any shutdown courtesy, reopen over the same
// directory, and the recovered engine state is bit-identical to an
// uninterrupted engine fed the same sequence.
func TestJournalRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	j, stats := openTestJournal(t, dir, nil)
	if stats.SnapshotLoaded || stats.Replayed != 0 {
		t.Fatalf("cold start stats = %+v", stats)
	}
	events := liveEvents(60)
	for _, f := range events {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	want := snapJSON(t, j.Engine())
	// Crash: no Close, no snapshot. (SyncAlways is the default policy, so
	// everything acknowledged is on disk.)

	j2, stats := openTestJournal(t, dir, nil)
	if stats.Replayed != len(events) || stats.Skipped != 0 || stats.SnapshotLoaded {
		t.Fatalf("recovery stats = %+v, want %d replayed", stats, len(events))
	}
	if got := snapJSON(t, j2.Engine()); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}

	// Uninterrupted reference run over the same sequence.
	ref := testEngine(t)
	for _, f := range events {
		if err := ref.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := snapJSON(t, ref); got != want {
		t.Fatalf("journal state differs from plain engine:\n got %s\nwant %s", want, got)
	}
	j2.Close()
}

// TestJournalSnapshotBoundsReplay checkpoints mid-stream and asserts the
// next recovery replays only the tail — and still lands on identical state.
func TestJournalSnapshotBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, nil)
	events := liveEvents(50)
	for _, f := range events[:30] {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(day(99)); err != nil {
		t.Fatal(err)
	}
	for _, f := range events[30:] {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	want := snapJSON(t, j.Engine())

	j2, stats := openTestJournal(t, dir, nil)
	if !stats.SnapshotLoaded {
		t.Fatal("snapshot not loaded")
	}
	if stats.Replayed != 20 {
		t.Fatalf("replayed %d records, want 20 (snapshot should cover the first 30)", stats.Replayed)
	}
	if got := snapJSON(t, j2.Engine()); got != want {
		t.Fatalf("recovered state differs after snapshot+tail:\n got %s\nwant %s", got, want)
	}
	j2.Close()
}

// TestJournalTornTailIgnored truncates the WAL mid-record after a crash;
// recovery must keep every complete record and never replay the torn one.
func TestJournalTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, nil)
	for _, f := range liveEvents(10) {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the final record: chop a few bytes off the single segment.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".seg" {
			seg = filepath.Join(dir, e.Name())
		}
	}
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	j2, stats := openTestJournal(t, dir, nil)
	if stats.Replayed != 9 {
		t.Fatalf("replayed %d, want 9 (torn final record truncated)", stats.Replayed)
	}
	if got := j2.Engine().Snapshot().Observed; got != 9 {
		t.Fatalf("observed %d, want 9", got)
	}
	j2.Close()
}

// TestMaybeSnapshotPolicySpacing drives MaybeSnapshot with a Fixed policy
// and a hand-rolled clock: no snapshot before the interval, one after.
func TestMaybeSnapshotPolicySpacing(t *testing.T) {
	dir := t.TempDir()
	now := day(99)
	j, _, err := OpenJournal(JournalConfig{
		Engine:         testEngine(t),
		WAL:            wal.Options{Dir: dir},
		SnapshotPolicy: checkpoint.Fixed{Every: time.Hour},
		Now:            func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, f := range liveEvents(5) {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if wrote, err := j.MaybeSnapshot(now.Add(30 * time.Minute)); err != nil || wrote {
		t.Fatalf("MaybeSnapshot inside interval: wrote=%v err=%v", wrote, err)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotFile)); !os.IsNotExist(err) {
		t.Fatal("snapshot file exists before interval elapsed")
	}
	if wrote, err := j.MaybeSnapshot(now.Add(2 * time.Hour)); err != nil || !wrote {
		t.Fatalf("MaybeSnapshot past interval: wrote=%v err=%v", wrote, err)
	}
	snap, applied, err := ReadSnapshotFileFS(nil, filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if applied != 5 || snap.Observed != 5 {
		t.Fatalf("snapshot applied=%d observed=%d, want 5/5", applied, snap.Observed)
	}
}

// TestMaybeSnapshotSkipsIdle: a due snapshot that would cover no new WAL
// record is skipped, within a process and across a restart, while a
// restart over an unsnapshotted WAL tail still snapshots it.
func TestMaybeSnapshotSkipsIdle(t *testing.T) {
	dir := t.TempDir()
	now := day(99)
	open := func() *Journal {
		t.Helper()
		j, _, err := OpenJournal(JournalConfig{
			Engine:         testEngine(t),
			WAL:            wal.Options{Dir: dir},
			SnapshotPolicy: checkpoint.Fixed{Every: time.Hour},
			Now:            func() time.Time { return now },
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	snapPath := filepath.Join(dir, SnapshotFile)
	maybe := func(j *Journal, at time.Time, want bool) {
		t.Helper()
		if wrote, err := j.MaybeSnapshot(at); err != nil || wrote != want {
			t.Fatalf("MaybeSnapshot(%v) = %v, %v; want wrote=%v", at, wrote, err, want)
		}
	}
	events := liveEvents(7)
	j := open()
	for _, f := range events[:5] {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	maybe(j, now.Add(2*time.Hour), true)
	first, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	maybe(j, now.Add(4*time.Hour), false)
	if again, _ := os.ReadFile(snapPath); !bytes.Equal(again, first) {
		t.Fatal("an idle MaybeSnapshot rewrote the snapshot file")
	}
	if err := j.Observe(events[5]); err != nil {
		t.Fatal(err)
	}
	maybe(j, now.Add(6*time.Hour), true)
	j.Close()

	// Restart over a snapshot that covers the whole WAL: nothing to write.
	j = open()
	maybe(j, now.Add(2*time.Hour), false)
	if err := j.Observe(events[6]); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Restart over an unsnapshotted tail: the first due call covers it.
	j = open()
	defer j.Close()
	maybe(j, now.Add(2*time.Hour), true)
	if _, applied, err := ReadSnapshotFileFS(nil, snapPath); err != nil || applied != 7 {
		t.Fatalf("snapshot applied=%d err=%v, want 7", applied, err)
	}
}

// TestJournalCompaction: snapshots drop covered segments, and recovery
// over the compacted log is still exact.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(JournalConfig{
		Engine: testEngine(t),
		WAL:    wal.Options{Dir: dir, SegmentBytes: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := liveEvents(80)
	for _, f := range events[:60] {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	before := j.WALSegments()
	if before < 3 {
		t.Fatalf("need several segments, got %d", before)
	}
	if err := j.Checkpoint(day(99)); err != nil {
		t.Fatal(err)
	}
	if after := j.WALSegments(); after >= before {
		t.Fatalf("compaction kept %d of %d segments", after, before)
	}
	for _, f := range events[60:] {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	want := snapJSON(t, j.Engine())

	j2, _, err := OpenJournal(JournalConfig{
		Engine: testEngine(t),
		WAL:    wal.Options{Dir: dir, SegmentBytes: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := snapJSON(t, j2.Engine()); got != want {
		t.Fatalf("recovery over compacted log differs:\n got %s\nwant %s", got, want)
	}
	j2.Close()
}

// TestCheckpointSyncsWAL: a snapshot claims the first `applied` WAL
// records are covered, so they must be on stable storage before the claim
// is — even under a lazy fsync policy. Otherwise a crash could persist a
// snapshot ahead of the durable log and the next recovery would skip
// events re-appended at the "covered" indices.
func TestCheckpointSyncsWAL(t *testing.T) {
	dir := t.TempDir()
	fsys := &segSyncFS{FS: iofault.Disk}
	j, _, err := OpenJournal(JournalConfig{
		Engine: testEngine(t),
		WAL:    wal.Options{Dir: dir, Policy: wal.SyncNever, FS: fsys},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	synced := fsys.syncs.Load()
	for _, f := range liveEvents(5) {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if fsys.syncs.Load() != synced {
		t.Fatal("SyncNever appends should leave the log dirty")
	}
	if err := j.Checkpoint(day(99)); err != nil {
		t.Fatal(err)
	}
	if fsys.syncs.Load() == synced {
		t.Fatal("snapshot recorded applied records without syncing them first")
	}
}

// segSyncFS counts the fsyncs of WAL segment files made through it.
type segSyncFS struct {
	iofault.FS
	syncs atomic.Int64
}

func (s *segSyncFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Ext(name) != ".seg" {
		return f, err
	}
	return segSyncFile{f, &s.syncs}, nil
}

type segSyncFile struct {
	iofault.File
	syncs *atomic.Int64
}

func (f segSyncFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// TestOpenJournalRefusesSnapshotAheadOfWAL: a snapshot claiming more
// applied records than the log holds means acknowledged events are gone;
// starting anyway would append new events at indices a future
// replay-from-applied silently skips.
func TestOpenJournalRefusesSnapshotAheadOfWAL(t *testing.T) {
	dir := t.TempDir()
	e := testEngine(t)
	if err := WriteSnapshotFileFS(nil, filepath.Join(dir, SnapshotFile), e.Snapshot(), 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(JournalConfig{
		Engine: testEngine(t),
		WAL:    wal.Options{Dir: dir},
	}); err == nil {
		t.Fatal("OpenJournal accepted a snapshot ahead of an empty WAL")
	}
}

// TestOpenJournalRefusesWALGap: if compaction removed records the on-disk
// snapshot does not cover (a lost snapshot rename with durable unlinks),
// replay would silently skip the gap — OpenJournal must refuse instead.
func TestOpenJournalRefusesWALGap(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(JournalConfig{
		Engine: testEngine(t),
		WAL:    wal.Options{Dir: dir, SegmentBytes: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range liveEvents(60) {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(day(99)); err != nil {
		t.Fatal(err)
	}
	if j.log.First() <= 1 {
		t.Fatalf("compaction kept record 1 (First=%d); test needs a gap", j.log.First())
	}
	// Roll the snapshot back to a position below the first surviving
	// record, as if the covering snapshot's rename never became durable.
	if err := WriteSnapshotFileFS(nil, filepath.Join(dir, SnapshotFile), j.Engine().Snapshot(), 1); err != nil {
		t.Fatal(err)
	}
	j.Close()

	if _, _, err := OpenJournal(JournalConfig{
		Engine: testEngine(t),
		WAL:    wal.Options{Dir: dir, SegmentBytes: 256},
	}); err == nil {
		t.Fatal("OpenJournal accepted a WAL with a compacted-away gap after the snapshot position")
	}
}

// TestJournalRejectsInvalidBeforeAppend: a rejected event must not reach
// the WAL (replay would re-reject it, but the log should stay clean).
func TestJournalRejectsInvalidBeforeAppend(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, nil)
	defer j.Close()
	if err := j.Observe(trace.Failure{System: 99, Node: 0, Time: day(99), Category: trace.Hardware}); err == nil {
		t.Fatal("invalid event accepted")
	}
	if n := j.WALCount(); n != 0 {
		t.Fatalf("rejected event reached the WAL (count %d)", n)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	e := testEngine(t)
	for _, f := range liveEvents(7) {
		if err := e.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), SnapshotFile)
	if err := WriteSnapshotFileFS(nil, path, e.Snapshot(), 7); err != nil {
		t.Fatal(err)
	}
	snap, applied, err := ReadSnapshotFileFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 7 || snap.Observed != 7 || len(snap.Active) == 0 {
		t.Fatalf("round trip: applied=%d observed=%d active=%d", applied, snap.Observed, len(snap.Active))
	}

	e2 := testEngine(t)
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, want := snapJSON(t, e2), snapJSON(t, e); got != want {
		t.Fatalf("restored engine differs:\n got %s\nwant %s", got, want)
	}

	// Restore refuses mismatched windows and unknown events.
	bad := snap
	bad.Window = time.Hour
	if err := e2.Restore(bad); err == nil {
		t.Fatal("Restore accepted mismatched window")
	}
	bad = snap
	bad.Active = append([]trace.Failure(nil), snap.Active...)
	bad.Active[0].System = 99
	if err := e2.Restore(bad); err == nil {
		t.Fatal("Restore accepted unknown-system event")
	}
}
