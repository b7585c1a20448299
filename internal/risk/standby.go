// Warm-standby replication: a Standby keeps a second engine (and optional
// dataset store) continuously caught up with a leader's WAL by tailing its
// segments through a wal.Follower, so promotion on leader death is O(tail):
// drain the last few durable records, open the log for writing, and attach
// a Journal — no full replay, no snapshot restore on the failover path.
// Leader recovery is the same sequence with nothing warmed up yet:
// OpenJournal builds a standby over its own directory and promotes it.
// Records cross from the follower to the apply loop in the ship-batch wire
// format (wal.EncodeShipBatch / DecodeShipBatch), the same frames a
// cross-machine replica would receive, so the replication stream is
// exercised end-to-end even in-process.
package risk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// StandbyConfig assembles a Standby.
type StandbyConfig struct {
	// Dir is the leader's WAL directory, tailed read-only. Required.
	Dir string
	// Engine is the standby's engine. It must be freshly built over the same
	// boot dataset as the leader's (same lift table inputs), or promotion
	// equivalence is lost. Required.
	Engine *Engine
	// Store, when set, receives every replayed event, keeping a warm dataset
	// store alongside the warm engine. It must not be shared with the
	// leader's store.
	Store *store.Store
	// BatchMax bounds one ship batch (records per replication round-trip);
	// 0 means 512.
	BatchMax int
	// FS is the filesystem the leader's WAL directory lives on. Nil means
	// the real disk.
	FS iofault.FS
}

// Standby is a warm replica of one shard's engine state. Methods are safe
// for concurrent use; the catchup loop, lag probes and promotion serialize
// on one mutex. It is also how a leader recovers: OpenJournal promotes a
// standby over the journal's own directory, so the follower is the one
// path that turns WAL records into engine and store state.
type Standby struct {
	mu       sync.Mutex
	dir      string
	fs       iofault.FS
	engine   *Engine
	st       *store.Store
	follower *wal.Follower
	batchMax int
	applied  uint64          // WAL records applied (== follower position)
	rec      RecoveryStats   // snapshot restore, replay, skip and store counters
	queue    []trace.Failure // accepted events not yet handed to the store
	warm     bool            // true once a catchup has fully drained the durable tail
	resync   bool            // replication hit wal.ErrGap; the standby must be rebuilt
	promoted bool            // true after Promote; the standby is consumed
}

// NewStandby opens a standby over a leader's WAL directory. When the
// directory holds a snapshot (the leader compacted at some point before
// this standby started), its engine state is restored first and, with a
// store configured, its active events are queued for the first catchup's
// store append; the follower starts after the records it covers.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.Engine == nil {
		return nil, errors.New("risk: standby needs an engine")
	}
	if cfg.Dir == "" {
		return nil, errors.New("risk: standby needs a WAL directory")
	}
	batchMax := cfg.BatchMax
	if batchMax <= 0 {
		batchMax = 512
	}
	fsys := iofault.Or(cfg.FS)
	s := &Standby{dir: cfg.Dir, fs: fsys, engine: cfg.Engine, st: cfg.Store, batchMax: batchMax}

	snap, walApplied, err := ReadSnapshotFileFS(fsys, filepath.Join(cfg.Dir, SnapshotFile))
	switch {
	case err == nil:
		if rerr := cfg.Engine.Restore(snap); rerr != nil {
			return nil, rerr
		}
		if cfg.Store != nil {
			s.queue = snap.Active
		}
		s.applied = walApplied
		s.rec.SnapshotLoaded = true
		s.rec.SnapshotEvents = len(snap.Active)
		s.rec.SnapshotWALPos = walApplied
	case errors.Is(err, os.ErrNotExist):
		// Cold start: replay the whole log.
	default:
		return nil, err
	}

	f, err := wal.OpenFollowerFS(fsys, cfg.Dir)
	if err != nil {
		return nil, err
	}
	if s.applied > 0 {
		f.Seek(s.applied)
	} else {
		// No snapshot: the oldest surviving record must be record 0, or
		// acknowledged events are unreachable.
		if p := f.Position(); p > 0 {
			return nil, fmt.Errorf("risk: standby over %s: WAL begins at record %d with no snapshot covering the prefix", cfg.Dir, p)
		}
	}
	s.follower = f
	return s, nil
}

// Engine returns the standby's engine (read-only callers; the apply loop
// owns writes).
func (s *Standby) Engine() *Engine { return s.engine }

// Store returns the standby's dataset store, or nil.
func (s *Standby) Store() *store.Store { return s.st }

// Applied returns how many WAL records the standby has applied.
func (s *Standby) Applied() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Warm reports whether the standby has fully drained the leader's durable
// tail at least once — the "standby warm-up" half of readiness.
func (s *Standby) Warm() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warm
}

// Skipped returns how many replayed records the engine rejected (catalog
// drift; never fatal, mirrors RecoveryStats.Skipped).
func (s *Standby) Skipped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(s.rec.Skipped)
}

// ResyncNeeded reports whether replication hit a compaction gap
// (wal.ErrGap): the leader snapshotted and truncated segments past this
// standby's position, so the records it still needs no longer exist in the
// log. The condition is terminal for this standby — retrying Catchup can
// never succeed, and promoting it would lose acknowledged events — but its
// engine and store are stale, not corrupted. The remedy is a rebuild: open
// a fresh NewStandby over the same leader directory, which restores the
// very snapshot that caused the gap and tails from there.
func (s *Standby) ResyncNeeded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resync
}

// Pending counts durable records not yet applied — the replication lag in
// records measured from the log itself (usable even when the leader's
// journal is gone).
func (s *Standby) Pending() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.follower.Pending()
}

// Catchup drains every durable record the leader has appended since the
// last call, in ship batches, and applies them to the engine (and store).
// It returns how many records were applied. A wal.ErrGap means the leader
// compacted past the standby's position; the standby cannot continue and
// must be rebuilt (its engine and store are stale but uncorrupted).
func (s *Standby) Catchup() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return 0, errors.New("risk: standby already promoted")
	}
	return s.drain()
}

// drain applies ship batches until the follower is caught up or fails, then
// hands every event the engine accepted to the store as one append — on the
// error paths too, so engine and store never disagree. Callers hold s.mu.
func (s *Standby) drain() (int, error) {
	total := 0
	var err error
	for {
		var n int
		n, err = s.catchupBatch()
		total += n
		if err != nil || n == 0 {
			break
		}
	}
	if len(s.queue) > 0 {
		batch := s.queue
		s.queue = nil
		if _, aerr := s.st.Append(batch); aerr != nil {
			err = errors.Join(err, fmt.Errorf("risk: standby applying to store: %w", aerr))
		} else {
			s.rec.StoreApplied += len(batch)
		}
	}
	switch {
	case errors.Is(err, wal.ErrGap):
		// The leader compacted past our position: flag the terminal resync
		// condition so supervisors report it distinctly instead of retrying
		// into the same wall forever.
		s.resync = true
		s.warm = false
	case err == nil:
		s.warm = true
	}
	return total, err
}

// catchupBatch ships and applies one bounded batch: read up to batchMax
// records from the follower, frame them as a ship batch, decode, apply.
// Encode/decode on every batch keeps the wire format load-bearing: a
// framing bug fails replication tests here, not on the first real network
// deployment. Records the follower yielded before a read error are still
// applied, since its position has moved past them. Callers hold s.mu.
func (s *Standby) catchupBatch() (int, error) {
	first := s.follower.Position()
	var payloads [][]byte
	n, rerr := s.follower.Next(s.batchMax, func(idx uint64, payload []byte) error {
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if n == 0 {
		return 0, rerr
	}
	frame, err := wal.EncodeShipBatch(first, payloads)
	if err != nil {
		return 0, err
	}
	gotFirst, gotPayloads, err := wal.DecodeShipBatch(frame)
	if err != nil {
		return 0, fmt.Errorf("risk: standby ship decode: %w", err)
	}
	if gotFirst != first || len(gotPayloads) != len(payloads) {
		return 0, fmt.Errorf("risk: standby ship round-trip mismatch (first %d->%d, count %d->%d)", first, gotFirst, len(payloads), len(gotPayloads))
	}
	for _, p := range gotPayloads {
		s.applied++
		f, derr := DecodeEvent(p)
		if derr != nil {
			s.rec.Skipped++
			continue
		}
		if oerr := s.engine.Observe(f); oerr != nil {
			s.rec.Skipped++
			continue
		}
		if s.st != nil {
			s.queue = append(s.queue, f)
		}
		s.rec.Replayed++
	}
	return n, rerr
}

// Promote turns the warm standby into the shard's leader after the old
// leader died: drain the durable tail one final time, open the WAL for
// writing (truncating any torn tail — torn records were never yielded by
// the follower, so nothing applied is lost), and attach a Journal that
// appends where the dead leader stopped. The work is O(records appended
// since the last Catchup), not O(log). The standby is consumed; further
// Catchup or Promote calls fail.
func (s *Standby) Promote(policy checkpoint.Policy, opts wal.Options, now func() time.Time) (*Journal, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil, errors.New("risk: standby already promoted")
	}
	if _, err := s.drain(); err != nil {
		return nil, fmt.Errorf("risk: promote: final catchup: %w", err)
	}
	if now == nil {
		now = time.Now
	}
	opts.Dir = s.dir
	if opts.FS == nil {
		opts.FS = s.fs
	}
	log, err := wal.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("risk: promote: %w", err)
	}
	// Records appended between the final catchup and Open cannot exist (the
	// leader is dead), but a race with a still-twitching leader is cheap to
	// close: drain whatever the opened log holds past our position.
	if _, err := s.drain(); err != nil {
		log.Close()
		return nil, fmt.Errorf("risk: promote: %w", err)
	}
	if c := log.Count(); c != s.applied {
		log.Close()
		return nil, fmt.Errorf("risk: promote: WAL holds %d records but standby applied %d — refusing to lead over a log that lost acknowledged events", c, s.applied)
	}
	s.promoted = true
	return &Journal{
		engine:   s.engine,
		log:      log,
		store:    s.st,
		fs:       s.fs,
		dir:      s.dir,
		snapPath: filepath.Join(s.dir, SnapshotFile),
		policy:   policy,
		now:      now,
		lastSnap: now(),
	}, nil
}

// MergeSnapshots combines per-shard engine snapshots (disjoint system sets)
// into the fleet-wide snapshot: counters sum, the last-event time is the
// max, and the active sets concatenate under the canonical
// (time, system, node, category) order Engine.Snapshot uses. Merging every
// shard of fleet A and every shard of fleet B yields byte-identical wire
// forms exactly when the per-shard states match.
func MergeSnapshots(parts []Snapshot) Snapshot {
	if len(parts) == 1 {
		return parts[0]
	}
	var out Snapshot
	for i, p := range parts {
		if i == 0 {
			out.Window = p.Window
		}
		out.Observed += p.Observed
		out.Dropped += p.Dropped
		if p.LastEvent.After(out.LastEvent) {
			out.LastEvent = p.LastEvent
		}
		out.Active = append(out.Active, p.Active...)
	}
	sortSnapshotEvents(out.Active)
	return out
}
