package risk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// leaderAndStandby opens a journaled leader over dir and a standby tailing
// the same directory, both over fresh engines from the same boot dataset.
func leaderAndStandby(t *testing.T, dir string) (*Journal, *Standby) {
	t.Helper()
	leader, _ := openTestJournal(t, dir, nil)
	sb, err := NewStandby(StandbyConfig{Dir: dir, Engine: testEngine(t), BatchMax: 3})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	return leader, sb
}

func TestStandbyCatchupTracksLeader(t *testing.T) {
	dir := t.TempDir()
	leader, sb := leaderAndStandby(t, dir)
	defer leader.Close()

	events := liveEvents(10)
	for _, f := range events[:6] {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	n, err := sb.Catchup()
	if err != nil {
		t.Fatalf("Catchup: %v", err)
	}
	if n != 6 || sb.Applied() != 6 || !sb.Warm() {
		t.Fatalf("Catchup = %d, Applied = %d, Warm = %v", n, sb.Applied(), sb.Warm())
	}
	if got, want := snapJSON(t, sb.Engine()), snapJSON(t, leader.Engine()); got != want {
		t.Fatalf("standby diverged after first catchup:\n%s\n%s", got, want)
	}

	// The leader keeps appending; lag shows up in Pending, then a second
	// catchup clears it and the engines converge again. BatchMax 3 forces
	// multiple ship batches per drain.
	for _, f := range events[6:] {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if lag, err := sb.Pending(); err != nil || lag != 4 {
		t.Fatalf("Pending = %d, %v, want 4, nil", lag, err)
	}
	if n, err := sb.Catchup(); err != nil || n != 4 {
		t.Fatalf("second Catchup = %d, %v", n, err)
	}
	if got, want := snapJSON(t, sb.Engine()), snapJSON(t, leader.Engine()); got != want {
		t.Fatalf("standby diverged after second catchup:\n%s\n%s", got, want)
	}
	if lag, err := sb.Pending(); err != nil || lag != 0 {
		t.Fatalf("post-catchup Pending = %d, %v", lag, err)
	}
}

func TestStandbyPromoteMatchesUninterruptedTwin(t *testing.T) {
	dir := t.TempDir()
	leader, sb := leaderAndStandby(t, dir)

	// The twin observes every event on one uninterrupted engine — the
	// reference the promoted standby must reproduce exactly.
	twin := testEngine(t)
	events := liveEvents(12)
	for _, f := range events[:9] {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range events {
		if err := twin.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	// The standby had caught up part-way when the leader dies; the tail (the
	// records after its last catchup) must flow through the final catchup
	// inside Promote.
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Catchup(); err != nil {
		t.Fatal(err)
	}
	for _, f := range events[9:] {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Close(); err != nil { // leader death (Close syncs)
		t.Fatal(err)
	}

	now := func() time.Time { return day(99) }
	j, err := sb.Promote(nil, wal.Options{}, now)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer j.Close()
	if got, want := snapJSON(t, j.Engine()), snapJSON(t, twin); got != want {
		t.Fatalf("promoted engine != uninterrupted twin:\n%s\n%s", got, want)
	}
	if j.WALCount() != 12 {
		t.Fatalf("promoted WALCount = %d, want 12", j.WALCount())
	}

	// The promoted journal leads: new appends land after the dead leader's
	// records and survive its own recovery.
	extra := liveEvents(14)[12:]
	for _, f := range extra {
		if err := j.Observe(f); err != nil {
			t.Fatal(err)
		}
		if err := twin.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if j.WALCount() != 14 {
		t.Fatalf("post-promotion WALCount = %d, want 14", j.WALCount())
	}
	if got, want := snapJSON(t, j.Engine()), snapJSON(t, twin); got != want {
		t.Fatalf("promoted leader diverged on new appends:\n%s\n%s", got, want)
	}

	// The standby is consumed.
	if _, err := sb.Catchup(); err == nil {
		t.Fatal("Catchup succeeded after Promote")
	}
	if _, err := sb.Promote(nil, wal.Options{}, now); err == nil {
		t.Fatal("second Promote succeeded")
	}
}

func TestStandbyRestoresLeaderSnapshot(t *testing.T) {
	dir := t.TempDir()
	leader, _ := openTestJournal(t, dir, checkpoint.Fixed{Every: time.Minute})
	events := liveEvents(8)
	for _, f := range events[:5] {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot + compact: records 0-4 leave the log; a late-starting standby
	// must restore the snapshot instead of replaying them.
	if err := leader.Checkpoint(day(98, 12)); err != nil {
		t.Fatal(err)
	}
	for _, f := range events[5:] {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}

	sb, err := NewStandby(StandbyConfig{Dir: dir, Engine: testEngine(t)})
	if err != nil {
		t.Fatalf("NewStandby after compaction: %v", err)
	}
	if sb.Applied() != 5 {
		t.Fatalf("Applied after snapshot restore = %d, want 5", sb.Applied())
	}
	if _, err := sb.Catchup(); err != nil {
		t.Fatal(err)
	}
	if got, want := snapJSON(t, sb.Engine()), snapJSON(t, leader.Engine()); got != want {
		t.Fatalf("snapshot-seeded standby diverged:\n%s\n%s", got, want)
	}
	leader.Close()
}

func TestStandbyGapWhenCompactedPast(t *testing.T) {
	dir := t.TempDir()
	leader, sb := leaderAndStandby(t, dir)
	defer leader.Close()
	for _, f := range liveEvents(5) {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	// The leader checkpoints and compacts while the standby never catches
	// up. If compaction dropped the standby's position the catchup must
	// report ErrGap (rebuild required); if the active segment survived, the
	// standby still applies everything.
	if err := leader.Checkpoint(day(98, 12)); err != nil {
		t.Fatal(err)
	}
	_, err := sb.Catchup()
	if err == nil {
		// Compaction may legitimately keep the active segment containing
		// record 0; only a true gap must error.
		if sb.Applied() != 5 {
			t.Fatalf("no gap reported but only %d records applied", sb.Applied())
		}
		return
	}
	if !errors.Is(err, wal.ErrGap) {
		t.Fatalf("Catchup = %v, want ErrGap", err)
	}
}

// TestStandbyResyncNeededAfterGap forces a real gap — one-byte segment
// budget so every record seals its own segment, then a checkpoint compacts
// them all away while the standby still sits at position zero — and pins
// the contract around it: ErrGap flips the standby into a terminal
// resync-needed state (never warm, retries cannot clear it), and the
// operator remedy is a fresh NewStandby over the same leader directory,
// which restores the very snapshot that caused the gap and replicates
// cleanly from there.
func TestStandbyResyncNeededAfterGap(t *testing.T) {
	dir := t.TempDir()
	leader, _, err := OpenJournal(JournalConfig{
		Engine: testEngine(t),
		WAL:    wal.Options{Dir: dir, SegmentBytes: 1},
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer leader.Close()
	sb, err := NewStandby(StandbyConfig{Dir: dir, Engine: testEngine(t), BatchMax: 3})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	if sb.ResyncNeeded() {
		t.Fatal("fresh standby born resync-needed")
	}

	events := liveEvents(8)
	for _, f := range events[:5] {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(day(98, 12)); err != nil {
		t.Fatal(err)
	}

	if _, err := sb.Catchup(); !errors.Is(err, wal.ErrGap) {
		t.Fatalf("Catchup = %v, want ErrGap", err)
	}
	if !sb.ResyncNeeded() || sb.Warm() {
		t.Fatalf("after gap: ResyncNeeded = %v, Warm = %v, want true, false", sb.ResyncNeeded(), sb.Warm())
	}
	// Terminal: the records are gone, so retrying can never succeed or
	// clear the flag.
	if _, err := sb.Catchup(); !errors.Is(err, wal.ErrGap) {
		t.Fatalf("retried Catchup = %v, want ErrGap", err)
	}
	if !sb.ResyncNeeded() || sb.Warm() {
		t.Fatal("retry cleared the resync-needed state")
	}

	// The remedy: rebuild over the same directory. The new standby seeds
	// from the compaction snapshot and tails the surviving log.
	rebuilt, err := NewStandby(StandbyConfig{Dir: dir, Engine: testEngine(t), BatchMax: 3})
	if err != nil {
		t.Fatalf("rebuilt NewStandby: %v", err)
	}
	if rebuilt.ResyncNeeded() {
		t.Fatal("rebuilt standby born resync-needed")
	}
	if rebuilt.Applied() != 5 {
		t.Fatalf("rebuilt Applied = %d, want 5 from snapshot", rebuilt.Applied())
	}
	for _, f := range events[5:] {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := rebuilt.Catchup(); err != nil || n != 3 {
		t.Fatalf("rebuilt Catchup = %d, %v, want 3, nil", n, err)
	}
	if !rebuilt.Warm() || rebuilt.ResyncNeeded() {
		t.Fatalf("rebuilt standby: Warm = %v, ResyncNeeded = %v", rebuilt.Warm(), rebuilt.ResyncNeeded())
	}
	if got, want := snapJSON(t, rebuilt.Engine()), snapJSON(t, leader.Engine()); got != want {
		t.Fatalf("rebuilt standby diverged from leader:\n%s\n%s", got, want)
	}
}

// crashMidRotation runs a journaled leader with a store over dir for the
// given events (small segments, so the log spans several), lets a standby
// with its own store catch up, kills the leader, and then leaves the torn
// start of the next segment a rotation would have made: stub bytes shorter
// than a header. It returns the caught-up standby.
func crashMidRotation(t *testing.T, dir string, events int, stub []byte) *Standby {
	t.Helper()
	st, err := store.New(historyDS())
	if err != nil {
		t.Fatal(err)
	}
	leader, _, err := OpenJournal(JournalConfig{
		Engine: testEngine(t),
		Store:  st,
		WAL:    wal.Options{Dir: dir, SegmentBytes: 256},
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	sst, err := store.New(historyDS())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStandby(StandbyConfig{Dir: dir, Engine: testEngine(t), Store: sst, BatchMax: 5})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	for _, f := range liveEvents(events) {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sb.Catchup(); err != nil {
		t.Fatalf("Catchup: %v", err)
	}
	segs := leader.WALSegments()
	if segs < 2 {
		t.Fatalf("leader wrote %d segments, the test needs a rotated log", segs)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("segments: %v, %v", names, err)
	}
	var seq int
	if _, err := fmt.Sscanf(filepath.Base(names[len(names)-1]), "wal-%08d.seg", &seq); err != nil {
		t.Fatal(err)
	}
	next := filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq+1))
	if err := os.WriteFile(next, stub, 0o644); err != nil {
		t.Fatal(err)
	}
	return sb
}

// TestRecoveryAfterCrashMidRotation: a crash in the middle of a rotation
// leaves a newest segment shorter than its header. It holds no records, so
// promoting a caught-up standby and reopening the journal must both recover
// every event, each with one store append.
func TestRecoveryAfterCrashMidRotation(t *testing.T) {
	const n = 12
	twin := testEngine(t)
	for _, f := range liveEvents(n) {
		if err := twin.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	want := snapJSON(t, twin)
	check := func(t *testing.T, j *Journal, st *store.Store) {
		t.Helper()
		if j.WALCount() != n {
			t.Fatalf("WALCount = %d, want %d", j.WALCount(), n)
		}
		if got := snapJSON(t, j.Engine()); got != want {
			t.Fatalf("recovered engine != twin of %d events:\n%s\n%s", n, got, want)
		}
		if st.EventsAppended() != n || st.Appends() != 1 {
			t.Fatalf("store: %d events in %d appends, want %d in 1", st.EventsAppended(), st.Appends(), n)
		}
		// The recovered leader writes after the dead one's last record.
		if err := j.Observe(liveEvents(n + 1)[n]); err != nil {
			t.Fatalf("post-recovery Observe: %v", err)
		}
	}
	for _, size := range []int{0, 5} {
		stub := []byte("hpcwal01")[:size]
		t.Run(fmt.Sprintf("promote-stub%d", size), func(t *testing.T) {
			sb := crashMidRotation(t, t.TempDir(), n, stub)
			j, err := sb.Promote(nil, wal.Options{SegmentBytes: 256}, nil)
			if err != nil {
				t.Fatalf("Promote: %v", err)
			}
			defer j.Close()
			check(t, j, j.Store())
		})
		t.Run(fmt.Sprintf("open-stub%d", size), func(t *testing.T) {
			dir := t.TempDir()
			crashMidRotation(t, dir, n, stub)
			st, err := store.New(historyDS())
			if err != nil {
				t.Fatal(err)
			}
			j, stats, err := OpenJournal(JournalConfig{
				Engine: testEngine(t),
				Store:  st,
				WAL:    wal.Options{Dir: dir, SegmentBytes: 256},
			})
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			defer j.Close()
			if stats.Replayed != n || stats.StoreApplied != n {
				t.Fatalf("stats = %+v, want %d replayed and applied", stats, n)
			}
			check(t, j, st)
		})
	}

	// A directory whose only file is a stub is an empty log to both paths.
	stubOnly := func(t *testing.T) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("stub-only-open", func(t *testing.T) {
		j, stats, err := OpenJournal(JournalConfig{Engine: testEngine(t), WAL: wal.Options{Dir: stubOnly(t)}})
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		defer j.Close()
		if j.WALCount() != 0 || stats.Replayed != 0 {
			t.Fatalf("WALCount = %d, stats = %+v, want an empty log", j.WALCount(), stats)
		}
	})
	t.Run("stub-only-promote", func(t *testing.T) {
		dir := stubOnly(t)
		sb, err := NewStandby(StandbyConfig{Dir: dir, Engine: testEngine(t)})
		if err != nil {
			t.Fatalf("NewStandby: %v", err)
		}
		j, err := sb.Promote(nil, wal.Options{}, nil)
		if err != nil {
			t.Fatalf("Promote: %v", err)
		}
		defer j.Close()
		if j.WALCount() != 0 || sb.Applied() != 0 {
			t.Fatalf("WALCount = %d, Applied = %d, want an empty log", j.WALCount(), sb.Applied())
		}
	})
}

// TestStandbyCatchupErrorKeepsStoreWithEngine: when the follower fails
// part-way through a drain (here a corrupt header on the newest segment),
// the records it yielded before the failure are applied — its position has
// moved past them — and the store receives exactly what the engine
// accepted, so the two never disagree.
func TestStandbyCatchupErrorKeepsStoreWithEngine(t *testing.T) {
	dir := t.TempDir()
	leader, _, err := OpenJournal(JournalConfig{Engine: testEngine(t), WAL: wal.Options{Dir: dir, SegmentBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range liveEvents(12) {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) < 2 {
		t.Fatalf("segments: %v, %v; the test needs a rotated log", names, err)
	}
	newest, err := os.OpenFile(names[len(names)-1], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newest.WriteAt([]byte("XXXXXXXX"), 0); err != nil {
		t.Fatal(err)
	}
	if err := newest.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := store.New(historyDS())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStandby(StandbyConfig{Dir: dir, Engine: testEngine(t), Store: st, BatchMax: 100})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	if _, err := sb.Catchup(); err == nil {
		t.Fatal("Catchup read past a segment with a corrupt header")
	}
	applied, observed := sb.Applied(), sb.Engine().Snapshot().Observed
	if applied == 0 || observed != applied || st.EventsAppended() != applied {
		t.Fatalf("after a failed drain: applied %d, engine observed %d, store holds %d; want equal and non-zero",
			applied, observed, st.EventsAppended())
	}
	if sb.Warm() {
		t.Fatal("a failed drain left the standby warm")
	}
}
