// Package store provides the versioned dataset store that unifies batch and
// online analysis: one canonical, monotonically versioned event log from
// which every reader — the conditional-probability kernels, the lift tables,
// the serving layer — observes an immutable snapshot. Writers append event
// batches copy-on-write; readers pin a Snapshot and keep computing against
// it for as long as they like while the store moves on. The snapshot's
// analyzer maintains its indexes incrementally (see analysis.DatasetIndex's
// Append), so an append costs amortized O(log n) per event instead of a full
// index rebuild, and the results are bit-identical to rebuilding from
// scratch over the same events.
package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// Snapshot is one immutable version of the dataset: the event log as of a
// point in the append sequence, plus the analyzer (and its indexes) built
// over exactly those events. Snapshots are safe for concurrent use and stay
// valid forever; pin one per request to answer every sub-question from a
// single consistent view.
type Snapshot struct {
	version  uint64
	rebuilds uint64
	ds       *trace.Dataset
	an       *analysis.Analyzer
}

// Version returns the snapshot's store version. Versions start at 1 and
// increase by exactly 1 per applied append, so equal versions imply
// identical datasets.
func (s *Snapshot) Version() uint64 { return s.version }

// Dataset returns the snapshot's dataset view. Callers must not modify it.
func (s *Snapshot) Dataset() *trace.Dataset { return s.ds }

// Analyzer returns the analyzer over the snapshot's dataset.
func (s *Snapshot) Analyzer() *analysis.Analyzer { return s.an }

// Events returns the number of failure events in the snapshot.
func (s *Snapshot) Events() int { return len(s.ds.Failures) }

// Rebuilds returns how many late (out-of-order) appends are in this
// snapshot's lineage. Between two snapshots with equal Rebuilds, the
// failure log only grew at the tail — the older snapshot's failures occupy
// the same leading positions in the newer one — so incremental consumers
// (the correlation miner) can process just the tail; a changed count means
// positions moved and derived state must be rebuilt from scratch.
func (s *Snapshot) Rebuilds() uint64 { return s.rebuilds }

// Store is the versioned, copy-on-write owner of the canonical event log.
// Snapshot loads are lock-free; Append serializes writers and publishes a
// new immutable snapshot per batch. The store takes ownership of the seed
// dataset passed to New — callers must not mutate it afterwards.
type Store struct {
	mu  sync.Mutex // serializes writers
	cur atomic.Pointer[Snapshot]

	appends  atomic.Uint64 // batches applied
	appended atomic.Uint64 // events applied
	rebuilds atomic.Uint64 // late appends, which moved stored failures
}

// New builds a store seeded with ds, normalizing its record order first
// (Append relies on time-sorted failures). The seed snapshot has version 1.
func New(ds *trace.Dataset) (*Store, error) {
	if ds == nil {
		return nil, fmt.Errorf("store: nil dataset")
	}
	ds.Sort()
	st := &Store{}
	st.cur.Store(&Snapshot{version: 1, ds: ds, an: analysis.New(ds)})
	return st, nil
}

// Snapshot returns the current snapshot. The result is immutable and stays
// valid across later appends.
func (st *Store) Snapshot() *Snapshot { return st.cur.Load() }

// Version returns the current store version.
func (st *Store) Version() uint64 { return st.Snapshot().version }

// Appends returns the number of batches applied since New.
func (st *Store) Appends() uint64 { return st.appends.Load() }

// Rebuilds returns how many of those appends were late: an event predated
// the newest failure already stored, so the failure log was re-merged and
// the touched systems' indexes rebuilt.
func (st *Store) Rebuilds() uint64 { return st.rebuilds.Load() }

// EventsAppended returns the number of events applied since New, excluding
// the seed dataset.
func (st *Store) EventsAppended() uint64 { return st.appended.Load() }

// Validate checks one event against the store's catalog without applying
// it: the system must be known, the node in range, the category valid and
// the time non-zero — the same gate the risk engine applies, so an event
// accepted by one is accepted by the other.
func (st *Store) Validate(f trace.Failure) error {
	return validateEvent(st.Snapshot().ds, f)
}

func validateEvent(ds *trace.Dataset, f trace.Failure) error {
	s, ok := ds.System(f.System)
	if !ok {
		return fmt.Errorf("store: unknown system %d", f.System)
	}
	if f.Node < 0 || f.Node >= s.Nodes {
		return fmt.Errorf("store: node %d out of range [0,%d) for system %d", f.Node, s.Nodes, f.System)
	}
	if f.Category < trace.Environment || f.Category > trace.Undetermined {
		return fmt.Errorf("store: invalid category %d", int(f.Category))
	}
	if f.Time.IsZero() {
		return fmt.Errorf("store: event has zero time")
	}
	return nil
}

// Append validates and applies one batch of events atomically, returning
// the snapshot that contains them. The whole batch is rejected — and the
// version unchanged — if any event fails validation. An empty batch is a
// no-op returning the current snapshot.
//
// Events at or after the newest stored failure take the incremental path:
// the failure log and indexes are extended in place (amortized O(log n) per
// event) under the writer lock, invisible to pinned snapshots. A batch with
// older events is merged into a fresh failure log, and the analyzer rebuilds
// the index of each system the batch reaches back into — still correct,
// just slower. Each system's measurement period is widened to cover its new
// events, so windowed analyses count them instead of clipping them away.
func (st *Store) Append(batch []trace.Failure) (*Snapshot, error) {
	if len(batch) == 0 {
		return st.Snapshot(), nil
	}
	sorted := make([]trace.Failure, len(batch))
	copy(sorted, batch)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.System != b.System {
			return a.System < b.System
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Category < b.Category
	})

	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.cur.Load()
	for _, f := range sorted {
		if err := validateEvent(cur.ds, f); err != nil {
			return nil, err
		}
	}
	merged, inOrder := mergeDataset(cur.ds, sorted)
	if !inOrder {
		st.rebuilds.Add(1)
	}
	next := &Snapshot{version: cur.version + 1, rebuilds: st.rebuilds.Load(), ds: merged, an: cur.an.Append(merged, sorted)}
	st.cur.Store(next)
	st.appends.Add(1)
	st.appended.Add(uint64(len(sorted)))
	return next, nil
}

// mergeDataset combines the current dataset with a time-sorted batch into a
// fresh Dataset value. When every batch event lands at or after the newest
// stored failure the batch is appended at the tail (inOrder true) —
// potentially growing the shared backing array, which is safe because the
// writer lock makes appends a linear chain and pinned snapshots never read
// past their own length. Otherwise the two sorted runs are merged into a
// new slice. Non-failure records are shared either way.
func mergeDataset(cur *trace.Dataset, batch []trace.Failure) (*trace.Dataset, bool) {
	out := &trace.Dataset{
		Systems:     extendPeriods(cur.Systems, batch),
		Jobs:        cur.Jobs,
		Temps:       cur.Temps,
		Maintenance: cur.Maintenance,
		Neutrons:    cur.Neutrons,
		Layouts:     cur.Layouts,
	}
	inOrder := len(cur.Failures) == 0 ||
		!batch[0].Time.Before(cur.Failures[len(cur.Failures)-1].Time)
	if inOrder {
		out.Failures = append(cur.Failures, batch...)
		return out, true
	}
	merged := make([]trace.Failure, 0, len(cur.Failures)+len(batch))
	i, j := 0, 0
	for i < len(cur.Failures) && j < len(batch) {
		if !batch[j].Time.Before(cur.Failures[i].Time) {
			merged = append(merged, cur.Failures[i])
			i++
		} else {
			merged = append(merged, batch[j])
			j++
		}
	}
	merged = append(merged, cur.Failures[i:]...)
	out.Failures = append(merged, batch[j:]...)
	return out, false
}

// extendPeriods widens each system's measurement period to cover its batch
// events, returning a fresh Systems slice when anything changed. Without
// this, a live event past the period end would never be an anchor and never
// add baseline windows — the analyses would silently ignore it.
func extendPeriods(systems []trace.SystemInfo, batch []trace.Failure) []trace.SystemInfo {
	var lo, hi map[int]time.Time
	for _, f := range batch {
		if lo == nil {
			lo = make(map[int]time.Time)
			hi = make(map[int]time.Time)
		}
		if t, ok := lo[f.System]; !ok || f.Time.Before(t) {
			lo[f.System] = f.Time
		}
		if t, ok := hi[f.System]; !ok || f.Time.After(t) {
			hi[f.System] = f.Time
		}
	}
	changed := false
	for _, s := range systems {
		if t, ok := lo[s.ID]; ok && t.Before(s.Period.Start) {
			changed = true
		}
		if t, ok := hi[s.ID]; ok && t.After(s.Period.End) {
			changed = true
		}
	}
	if !changed {
		return systems
	}
	out := make([]trace.SystemInfo, len(systems))
	copy(out, systems)
	for i := range out {
		s := &out[i]
		if t, ok := lo[s.ID]; ok && t.Before(s.Period.Start) {
			s.Period.Start = t
		}
		if t, ok := hi[s.ID]; ok && t.After(s.Period.End) {
			s.Period.End = t
		}
	}
	return out
}
