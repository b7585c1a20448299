package risk

import (
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// crashSchedule drives one full journal lifetime over fs: open, ingest the
// events one at a time, force a snapshot+compaction after each index in
// ckpts, close. It returns how many events were acknowledged (Observe
// returned nil) before the filesystem crashed; -1 in the error position
// means the schedule completed cleanly.
func crashSchedule(t *testing.T, fs iofault.FS, events []trace.Failure, ckpts map[int]bool) (acked int, clean bool) {
	t.Helper()
	eng := testEngine(t)
	st, err := store.New(historyDS())
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournal(JournalConfig{
		Engine: eng,
		Store:  st,
		WAL:    wal.Options{Dir: "/wal", SegmentBytes: 512, FS: fs},
		Now:    func() time.Time { return day(99) },
	})
	if err != nil {
		return 0, false
	}
	for i, f := range events {
		if err := j.Observe(f); err != nil {
			return acked, false
		}
		acked++
		if ckpts[i] {
			if err := j.Checkpoint(day(99)); err != nil {
				return acked, false
			}
		}
	}
	if err := j.Close(); err != nil {
		return acked, false
	}
	return acked, true
}

// TestCrashConsistencySweep is the torture gate: enumerate every mutating
// filesystem operation of a WAL-append + snapshot + compaction schedule,
// crash the journal at each one (cycling through tear modes and directory-
// entry durability modes), reboot, and check the recovery invariants:
//
//  1. Recovery always succeeds — no crash point leaves an unopenable state.
//  2. No acknowledged event is lost: the recovered engine observed at least
//     every event whose Observe had returned nil.
//  3. No phantom events: the recovered state is byte-identical to a twin
//     engine fed exactly the recovered prefix of the schedule — recovery
//     yields a prefix of what was sent, never invented or reordered data.
//  4. The dataset store recovers the same prefix (its version only grows).
//  5. A restored snapshot's WAL position lies within [First, Count] of the
//     surviving log.
//  6. The journal is writable after recovery.
//
// Set CRASHGATE_DEEP=1 for the long schedule (nightly CI).
func TestCrashConsistencySweep(t *testing.T) {
	nEvents, every := 36, 12
	if os.Getenv("CRASHGATE_DEEP") != "" {
		nEvents, every = 120, 13
	}
	events := liveEvents(nEvents)
	ckpts := map[int]bool{}
	for i := every - 1; i < nEvents; i += every {
		ckpts[i] = true
	}

	// Dry run: count the schedule's mutating operations — each is one crash
	// point. EagerDirSync doesn't change the count (SyncDir still counts).
	dry := iofault.NewMemFS()
	if acked, clean := crashSchedule(t, dry, events, ckpts); !clean || acked != nEvents {
		t.Fatalf("dry run: acked %d/%d, clean=%v", acked, nEvents, clean)
	}
	// CrashAfter(n) fails the (n+1)th op, so the sweepable crash points are
	// n in [1, total): the crash must land on an op the schedule performs.
	total := dry.Ops()
	if total < 101 {
		t.Fatalf("schedule has %d crash points, want >=100 for a meaningful sweep", total-1)
	}
	t.Logf("sweeping %d crash points (%d events, checkpoints every %d)", total-1, nEvents, every)

	extra := trace.Failure{System: 1, Node: 0, Time: day(99, 1), Category: trace.Hardware, HW: trace.CPU}
	tears := []iofault.TearMode{iofault.TearNone, iofault.TearPartial, iofault.TearBitFlip}
	for n := 1; n < total; n++ {
		n := n
		tear := tears[n%len(tears)]
		eager := n%2 == 0
		t.Run(fmt.Sprintf("crash-%03d-tear%d-eager%v", n, tear, eager), func(t *testing.T) {
			fs := iofault.NewMemFS()
			fs.EagerDirSync(eager)
			fs.CrashAfter(n)
			acked, clean := crashSchedule(t, fs, events, ckpts)
			if clean {
				t.Fatalf("crashAfter(%d) of %d ops did not crash", n, total)
			}
			fs.Reboot(tear)

			eng := testEngine(t)
			st, err := store.New(historyDS())
			if err != nil {
				t.Fatal(err)
			}
			j, stats, err := OpenJournal(JournalConfig{
				Engine: eng,
				Store:  st,
				WAL:    wal.Options{Dir: "/wal", SegmentBytes: 512, FS: fs},
				Now:    func() time.Time { return day(99) },
			})
			if err != nil {
				t.Fatalf("recovery after crash at op %d failed: %v", n, err)
			}
			defer j.Close()
			if stats.Skipped != 0 {
				t.Fatalf("recovery skipped %d records", stats.Skipped)
			}

			// Invariant 2: everything acknowledged survives.
			recovered := int(eng.Snapshot().Observed)
			if recovered < acked {
				t.Fatalf("lost acknowledged events: acked %d, recovered %d", acked, recovered)
			}
			// ...and never more than was ever sent.
			if recovered > nEvents {
				t.Fatalf("recovered %d events, only %d were sent", recovered, nEvents)
			}

			// Invariant 3: the recovered state is exactly the twin fed the
			// recovered prefix — no phantoms, no reordering, no mutation.
			twin := testEngine(t)
			for _, f := range events[:recovered] {
				if err := twin.Observe(f); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := snapJSON(t, eng), snapJSON(t, twin); got != want {
				t.Fatalf("recovered state is not the twin of the first %d events:\n got %s\nwant %s", recovered, got, want)
			}

			// Invariant 4: the store holds the same prefix (every recovered
			// event is in the risk window here, so counts match exactly).
			if got := int(st.EventsAppended()); got != recovered {
				t.Fatalf("store recovered %d events, engine recovered %d", got, recovered)
			}

			// Invariant 5: a restored snapshot must point inside the log.
			if stats.SnapshotLoaded {
				if first, count := walFirst(j), j.WALCount(); stats.SnapshotWALPos < first || stats.SnapshotWALPos > count {
					t.Fatalf("snapshot WAL position %d outside surviving log [%d, %d]", stats.SnapshotWALPos, first, count)
				}
			}

			// Invariant 6: the journal serves writes again.
			if err := j.Observe(extra); err != nil {
				t.Fatalf("post-recovery Observe: %v", err)
			}
		})
	}
}

// walFirst returns the index of the first record still in j's WAL.
func walFirst(j *Journal) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.First()
}
