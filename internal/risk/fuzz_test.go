package risk

import (
	"encoding/json"
	"testing"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// FuzzSnapshotRestore throws arbitrary bytes at the snapshot decode +
// engine restore path — the exact code a recovery runs over a snapshot file
// a crash (or an attacker with disk access) may have mangled. Invariants:
// never panics, and a decode that succeeds yields a snapshot the engine
// either restores cleanly or rejects with an error.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"format":99}`))
	f.Add([]byte(`{"format":1}`))
	f.Add([]byte(`{"format":1,"window_ns":-1,"observed":18446744073709551615}`))
	// A genuine snapshot as the well-formed seed.
	if eng, err := FromDataset(historyDS(), trace.Week); err == nil {
		_ = eng.Observe(liveEvents(1)[0])
		snap := eng.Snapshot()
		if data, merr := json.Marshal(persistedSnapshot{
			Format: snapshotFormat,
			WireSnapshot: WireSnapshot{
				WindowNs: int64(snap.Window),
				Observed: snap.Observed,
				Active:   []walEvent{toWalEvent(liveEvents(1)[0])},
			},
		}); merr == nil {
			f.Add(data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, _, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		e, err := FromDataset(historyDS(), trace.Week)
		if err != nil {
			t.Fatalf("building engine: %v", err)
		}
		// Restore may reject the snapshot (wrong window, invalid events) but
		// must never panic or leave the engine unable to answer.
		if rerr := e.Restore(snap); rerr == nil {
			e.Snapshot()
		}
	})
}
