package risk

import (
	"testing"

	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

func openStoreJournal(t *testing.T, dir string, st *store.Store, policy checkpoint.Policy) (*Journal, RecoveryStats) {
	t.Helper()
	j, stats, err := OpenJournal(JournalConfig{
		Engine:         testEngine(t),
		WAL:            wal.Options{Dir: dir},
		SnapshotPolicy: policy,
		Store:          st,
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j, stats
}

// TestJournalAppliesObservesToStore pins the tentpole's one-log contract on
// the live path: every event the journal accepts lands in the dataset store
// as one version step, and rejected events leave the store untouched.
func TestJournalAppliesObservesToStore(t *testing.T) {
	st, err := store.New(historyDS())
	if err != nil {
		t.Fatal(err)
	}
	j, stats := openStoreJournal(t, t.TempDir(), st, nil)
	defer j.Close()
	if stats.StoreApplied != 0 {
		t.Fatalf("cold start applied %d store events", stats.StoreApplied)
	}
	events := liveEvents(12)
	for _, f := range events {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := st.Version(), uint64(1+len(events)); got != want {
		t.Fatalf("store version = %d, want %d", got, want)
	}
	if got, want := st.EventsAppended(), uint64(len(events)); got != want {
		t.Fatalf("store appended = %d, want %d", got, want)
	}
	if err := j.Observe(trace.Failure{System: 404, Node: 0, Time: day(99)}); err == nil {
		t.Fatal("invalid event accepted")
	}
	if got, want := st.Version(), uint64(1+len(events)); got != want {
		t.Fatalf("rejected event moved store version to %d", got)
	}
}

// TestJournalRecoveryRebuildsStore is the crash-safety contract extended to
// the dataset store: crash after observing events, reopen with a fresh
// store, and recovery replays the WAL tail (plus snapshot actives, when a
// snapshot bounded the replay) into it — one recovery pass rebuilding one
// unified state.
func TestJournalRecoveryRebuildsStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.New(historyDS())
	if err != nil {
		t.Fatal(err)
	}
	j, _ := openStoreJournal(t, dir, st, nil)
	events := liveEvents(20)
	for _, f := range events {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	liveEvents := st.Snapshot().Events()
	liveVersionSteps := st.EventsAppended()
	if liveVersionSteps != uint64(len(events)) {
		t.Fatalf("live run appended %d events to store, want %d", liveVersionSteps, len(events))
	}
	// Crash: no Close, no snapshot.

	st2, err := store.New(historyDS())
	if err != nil {
		t.Fatal(err)
	}
	j2, stats := openStoreJournal(t, dir, st2, nil)
	defer j2.Close()
	if stats.Replayed != len(events) {
		t.Fatalf("replayed %d, want %d", stats.Replayed, len(events))
	}
	if stats.StoreApplied != len(events) {
		t.Fatalf("store applied %d, want %d", stats.StoreApplied, len(events))
	}
	if got := st2.Snapshot().Events(); got != liveEvents {
		t.Fatalf("recovered store has %d events, live run had %d", got, liveEvents)
	}
	// The recovered store's failure log must match the live run's exactly
	// (same events, same canonical order), even though recovery applied one
	// batch where the live run applied twenty.
	a, b := st.Snapshot().Dataset().Failures, st2.Snapshot().Dataset().Failures
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || a[i].System != b[i].System ||
			a[i].Node != b[i].Node || a[i].Category != b[i].Category {
			t.Fatalf("failure %d differs: live %+v recovered %+v", i, a[i], b[i])
		}
	}
}

// TestJournalRecoveryAfterCheckpointRebuildsStore covers the snapshot-backed
// path: after a checkpoint compacts the WAL, recovery must feed the store
// from the snapshot's active set plus the remaining tail.
func TestJournalRecoveryAfterCheckpointRebuildsStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.New(historyDS())
	if err != nil {
		t.Fatal(err)
	}
	j, _ := openStoreJournal(t, dir, st, nil)
	head := liveEvents(10)
	for _, f := range head {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(day(99)); err != nil {
		t.Fatal(err)
	}
	tail := liveEvents(16)[10:]
	for _, f := range tail {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	// Crash.

	st2, err := store.New(historyDS())
	if err != nil {
		t.Fatal(err)
	}
	j2, stats := openStoreJournal(t, dir, st2, nil)
	defer j2.Close()
	if !stats.SnapshotLoaded {
		t.Fatal("snapshot not loaded")
	}
	// The engine's window retained all 10 head events (they span hours),
	// so snapshot actives + tail must equal the full feed.
	if stats.StoreApplied != stats.SnapshotEvents+stats.Replayed {
		t.Fatalf("store applied %d, want snapshot %d + replayed %d",
			stats.StoreApplied, stats.SnapshotEvents, stats.Replayed)
	}
	if stats.Replayed != len(tail) {
		t.Fatalf("replayed %d, want %d", stats.Replayed, len(tail))
	}
	if got, want := st2.Snapshot().Events(), st.Snapshot().Events()-(10-stats.SnapshotEvents); got != want {
		t.Fatalf("recovered store has %d events, want %d", got, want)
	}
}

// BenchmarkOpenJournalStoreRecovery times leader recovery with a dataset
// store over a 50k-record WAL and no snapshot: the follower replays every
// record into the engine and the store takes them as one batch.
func BenchmarkOpenJournalStoreRecovery(b *testing.B) {
	const records = 50000
	dir := b.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range liveEvents(records) {
		if _, err := log.Append(EncodeEvent(f)); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := testEngine(b)
		st, err := store.New(historyDS())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		j, stats, err := OpenJournal(JournalConfig{Engine: eng, Store: st, WAL: wal.Options{Dir: dir}})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if stats.Replayed != records || stats.StoreApplied != records {
			b.Fatalf("stats = %+v, want %d replayed and applied", stats, records)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
