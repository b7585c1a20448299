// Durable serving state: a Journal couples the in-memory Engine with an
// append-only WAL (internal/wal) and a periodic on-disk snapshot, so a
// crashed server restarts with state bit-identical to an uninterrupted run.
// Every event is validated, appended to the log, and only then observed;
// recovery restores the newest snapshot and replays the WAL tail after it.
// Snapshot spacing reuses the checkpoint-interval policies of
// internal/checkpoint — the same Fixed/RiskAware trade-off the paper
// motivates for application checkpoints applies to engine snapshots: a
// burst of failures means more WAL traffic, so a RiskAware policy tightens
// snapshot spacing exactly when replay time would otherwise grow fastest.
package risk

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// walEvent is the WAL/snapshot wire form of one trace.Failure. Fields are
// integers and an RFC3339Nano time, so encode/decode round-trips exactly.
type walEvent struct {
	System   int       `json:"s"`
	Node     int       `json:"n"`
	Time     time.Time `json:"t"`
	Category int       `json:"c"`
	HW       int       `json:"hw,omitempty"`
	SW       int       `json:"sw,omitempty"`
	Env      int       `json:"env,omitempty"`
	Downtime int64     `json:"d,omitempty"` // nanoseconds
}

func toWalEvent(f trace.Failure) walEvent {
	return walEvent{
		System: f.System, Node: f.Node, Time: f.Time,
		Category: int(f.Category), HW: int(f.HW), SW: int(f.SW), Env: int(f.Env),
		Downtime: int64(f.Downtime),
	}
}

func (e walEvent) failure() trace.Failure {
	return trace.Failure{
		System: e.System, Node: e.Node, Time: e.Time,
		Category: trace.Category(e.Category),
		HW:       trace.HWComponent(e.HW), SW: trace.SWClass(e.SW), Env: trace.EnvClass(e.Env),
		Downtime: time.Duration(e.Downtime),
	}
}

// EncodeEvent serializes one event into its WAL record payload.
func EncodeEvent(f trace.Failure) []byte {
	data, err := json.Marshal(toWalEvent(f))
	if err != nil {
		// Only unrepresentable times can fail here, and trace times are
		// parsed from RFC3339 inputs.
		panic(fmt.Sprintf("risk: encoding event: %v", err))
	}
	return data
}

// DecodeEvent parses a WAL record payload back into an event.
func DecodeEvent(data []byte) (trace.Failure, error) {
	var e walEvent
	if err := json.Unmarshal(data, &e); err != nil {
		return trace.Failure{}, fmt.Errorf("risk: decoding event: %w", err)
	}
	return e.failure(), nil
}

// SnapshotFile is the engine-snapshot file name inside a WAL directory.
const SnapshotFile = "snapshot.json"

// snapshotFormat versions the snapshot file.
const snapshotFormat = 1

// persistedSnapshot is the on-disk form of an Engine Snapshot: file
// metadata and the WAL position it covers, then the wire form's fields.
type persistedSnapshot struct {
	Format     int       `json:"format"`
	SavedAt    time.Time `json:"saved_at"`
	WALApplied uint64    `json:"wal_applied"`
	WireSnapshot
}

// snapshotTempPattern names the temp files WriteSnapshotFileFS stages through;
// OpenJournal sweeps stale ones (crash or error path leftovers) on startup.
const snapshotTempPattern = ".snapshot-*"

// WriteSnapshotFileFS atomically and durably persists an engine snapshot
// that covers the first applied WAL records (iofault.WriteFileAtomic): a
// crash mid-write leaves the previous snapshot intact, and the caller may
// compact the WAL the snapshot covers once it returns. fsys nil means the
// real disk; fault-injection tests fail or crash any step of the protocol.
func WriteSnapshotFileFS(fsys iofault.FS, path string, snap Snapshot, applied uint64) error {
	data, err := encodeSnapshot(snap, applied, time.Now().UTC())
	if err != nil {
		return fmt.Errorf("risk: encoding snapshot: %w", err)
	}
	if err := iofault.WriteFileAtomic(fsys, path, snapshotTempPattern, data); err != nil {
		return fmt.Errorf("risk: snapshot: %w", err)
	}
	return nil
}

// ReadSnapshotFileFS loads a persisted snapshot through fsys (nil means the
// real disk). A missing file returns os.ErrNotExist (callers treat that as
// "cold start").
func ReadSnapshotFileFS(fsys iofault.FS, path string) (Snapshot, uint64, error) {
	data, err := iofault.Or(fsys).ReadFile(path)
	if err != nil {
		return Snapshot{}, 0, err
	}
	snap, applied, err := decodeSnapshot(data)
	if err != nil {
		return Snapshot{}, 0, fmt.Errorf("risk: snapshot %s: %w", path, err)
	}
	return snap, applied, nil
}

// encodeSnapshot serializes a snapshot file's bytes.
func encodeSnapshot(snap Snapshot, applied uint64, savedAt time.Time) ([]byte, error) {
	return json.Marshal(persistedSnapshot{
		Format:       snapshotFormat,
		SavedAt:      savedAt,
		WALApplied:   applied,
		WireSnapshot: SnapshotJSON(snap),
	})
}

// decodeSnapshot parses serialized snapshot bytes. It is the fuzz surface:
// arbitrary input must produce an error, never a panic.
func decodeSnapshot(data []byte) (Snapshot, uint64, error) {
	var ps persistedSnapshot
	if err := json.Unmarshal(data, &ps); err != nil {
		return Snapshot{}, 0, err
	}
	if ps.Format != snapshotFormat {
		return Snapshot{}, 0, fmt.Errorf("unsupported format %d", ps.Format)
	}
	return Snapshot{
		Window:    time.Duration(ps.WindowNs),
		Observed:  ps.Observed,
		Dropped:   ps.Dropped,
		LastEvent: ps.LastEvent,
		Active:    convert(ps.Active, walEvent.failure),
	}, ps.WALApplied, nil
}

// WireSnapshot is the deterministic JSON form of an engine Snapshot: the
// persisted snapshot's state fields without file metadata (no save time,
// no WAL position). Two engines with identical state produce byte-identical
// encodings — GET /v1/snapshot serves this for recovery-equivalence checks.
type WireSnapshot struct {
	WindowNs  int64      `json:"window_ns"`
	Observed  uint64     `json:"observed"`
	Dropped   uint64     `json:"dropped"`
	LastEvent time.Time  `json:"last_event"`
	Active    []walEvent `json:"active"`
}

// SnapshotJSON converts a Snapshot into its wire form.
func SnapshotJSON(snap Snapshot) WireSnapshot {
	return WireSnapshot{
		WindowNs:  int64(snap.Window),
		Observed:  snap.Observed,
		Dropped:   snap.Dropped,
		LastEvent: snap.LastEvent,
		Active:    convert(snap.Active, toWalEvent),
	}
}

// convert maps every element of in through f into a non-nil slice, so an
// empty event list encodes as [] rather than null.
func convert[A, B any](in []A, f func(A) B) []B {
	out := make([]B, 0, len(in))
	for _, a := range in {
		out = append(out, f(a))
	}
	return out
}

// JournalConfig assembles a Journal.
type JournalConfig struct {
	// Engine is the engine to make durable. Required.
	Engine *Engine
	// WAL configures the log (Dir required). Policy, Interval,
	// SegmentBytes and Now pass through to wal.Follower.Lead when recovery
	// promotes the journal's standby. WAL.FS is the filesystem for everything
	// under Dir: the log, the snapshot machinery and recovery reads. Nil
	// means the real disk; fault-injection and crash-sweep tests substitute
	// an iofault.MemFS or iofault.Inject there.
	WAL wal.Options
	// SnapshotPolicy spaces periodic engine snapshots using a checkpoint
	// policy (checkpoint.Fixed for constant spacing, checkpoint.RiskAware
	// to snapshot more often while failures are arriving). Nil disables
	// periodic snapshots; the WAL alone still makes recovery exact, just
	// with unbounded replay length.
	SnapshotPolicy checkpoint.Policy
	// Now supplies the snapshot-spacing clock; defaults to time.Now.
	Now func() time.Time
	// Store, when set, receives every event the journal applies — the
	// recovery replay (snapshot actives plus WAL tail) and each live
	// ObserveBatch, one append apiece — so the analytics dataset and the
	// risk window rebuild from one pass over one log instead of maintaining
	// two recovery paths.
	Store *store.Store
}

// RecoveryStats reports what OpenJournal reconstructed.
type RecoveryStats struct {
	// SnapshotLoaded is true when a snapshot file was restored.
	SnapshotLoaded bool
	// SnapshotEvents is the number of active events the snapshot held.
	SnapshotEvents int
	// Replayed counts WAL records applied after the snapshot position.
	Replayed int
	// Skipped counts WAL records the engine rejected on replay (catalog
	// drift between runs — never fatal, always counted).
	Skipped int
	// StoreApplied counts recovered events applied to the dataset store
	// (zero when the journal has no store).
	StoreApplied int
	// SnapshotWALPos is the WAL position the restored snapshot covered
	// (meaningful only when SnapshotLoaded).
	SnapshotWALPos uint64
	// TempsSwept counts stale snapshot temp files removed on open — debris
	// from a crash mid-snapshot-write.
	TempsSwept int
}

// Journal is the durable ingest path: a mutex-serialized
// validate → append → apply pipeline over one Engine, plus periodic
// snapshots that bound recovery replay time. Scoring reads (Score, TopK)
// go straight to the Engine and are never serialized by the journal.
type Journal struct {
	mu       sync.Mutex
	engine   *Engine
	log      *wal.Log
	store    *store.Store
	fs       iofault.FS
	dir      string
	snapPath string
	policy   checkpoint.Policy
	now      func() time.Time
	lastSnap time.Time
	// covered is the WAL count the newest snapshot covers, -1 while none
	// exists: a due snapshot that would cover no new record is skipped.
	covered int64
	// walCount and walSegments publish the log's Count and Segments after
	// every change, so status probes never wait on mu, which ObserveBatch
	// holds across fsyncs.
	walCount    atomic.Uint64
	walSegments atomic.Int64
}

// OpenJournal opens (or creates) the durable state under cfg.WAL.Dir and
// returns the journal ready for Observe. Recovery is a failover onto the
// journal's own directory: a Standby restores the newest snapshot into the
// engine, its follower replays the WAL tail, and Promote leads from where
// the follower stopped — one path for recovery and failover, with the
// store receiving the snapshot's actives and the tail as one batch. The
// engine must be freshly built (no events observed) or recovery
// equivalence is lost.
func OpenJournal(cfg JournalConfig) (*Journal, RecoveryStats, error) {
	var stats RecoveryStats
	if cfg.Engine == nil {
		return nil, stats, errors.New("risk: journal needs an engine")
	}
	if cfg.WAL.Dir == "" {
		return nil, stats, errors.New("risk: journal needs a WAL directory")
	}
	fsys := iofault.Or(cfg.WAL.FS)

	// A stranded snapshot temp is debris, not state: a sweep that fails
	// costs disk space, never correctness, so it does not fail the open.
	stats.TempsSwept, _ = iofault.SweepTemps(fsys, cfg.WAL.Dir, snapshotTempPattern)

	sb, err := NewStandby(StandbyConfig{Dir: cfg.WAL.Dir, Engine: cfg.Engine, Store: cfg.Store, FS: fsys})
	if err != nil {
		return nil, stats, err
	}
	j, err := sb.Promote(cfg.SnapshotPolicy, cfg.WAL, cfg.Now)
	sb.rec.TempsSwept = stats.TempsSwept
	return j, sb.rec, err
}

// Engine returns the journaled engine (for scoring reads).
func (j *Journal) Engine() *Engine { return j.engine }

// Store returns the dataset store the journal applies events to, or nil.
func (j *Journal) Store() *store.Store { return j.store }

// ErrAppend marks a WAL-append failure inside ObserveBatch: the event was
// valid but could not be made durable. Serving layers treat it as a
// server-side fault (500), never a per-event rejection.
var ErrAppend = errors.New("risk: journal append failed")

// Observe durably ingests one event: ObserveBatch with a batch of one.
func (j *Journal) Observe(f trace.Failure) error {
	errs, err := j.ObserveBatch([]trace.Failure{f})
	if err != nil {
		return err
	}
	return errs[0]
}

// ObserveBatch durably ingests events in order: each is validated against
// the catalog (a rejection never touches the log) and appended to the WAL
// (fsync per policy), then what was appended goes through Apply. errs[i]
// is event i's rejection, nil once applied. A WAL failure ends the batch
// with an ErrAppend error, which the failing and later events also get;
// the events appended before it are still applied, so the engine and store
// hold exactly what is durable. A store rejection is ErrAppend too: the
// events are durable and reach the store on the next recovery, so the
// caller must treat the request as a server fault, not a rejection.
func (j *Journal) ObserveBatch(events []trace.Failure) (errs []error, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	errs = make([]error, len(events))
	for i, f := range events {
		if err != nil {
			errs[i] = err
			continue
		}
		if errs[i] = j.engine.Validate(f); errs[i] != nil {
			continue
		}
		if _, aerr := j.log.Append(EncodeEvent(f)); aerr != nil {
			// Double-wrap so callers can both classify (errors.Is ErrAppend) and
			// inspect the cause — iofault.IsDiskFull needs the ENOSPC to survive.
			err = fmt.Errorf("%w: %w", ErrAppend, aerr)
			errs[i] = err
		}
	}
	j.publish()
	if serr := Apply(j.engine, j.store, events, errs); serr != nil && err == nil {
		err = fmt.Errorf("%w: dataset store: %w", ErrAppend, serr)
	}
	return errs, err
}

// Apply turns accepted events into serving state, with or without a
// journal: it observes, in order, every event whose errs entry is nil,
// records the engine's rejections in errs, and hands what the engine
// accepted to st (when non-nil) in one append, whose error it returns.
func Apply(eng *Engine, st *store.Store, events []trace.Failure, errs []error) error {
	var accepted []trace.Failure
	for i, f := range events {
		if errs[i] != nil {
			continue
		}
		if errs[i] = eng.Observe(f); errs[i] == nil && st != nil {
			accepted = append(accepted, f)
		}
	}
	if len(accepted) == 0 {
		return nil
	}
	_, err := st.Append(accepted)
	return err
}

// Sync flushes outstanding WAL appends regardless of fsync policy; the
// serving layer calls it during shutdown.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Sync()
}

// Flush syncs outstanding WAL appends when the fsync policy makes a sync
// due (wal.Log.Flush). The serving layer calls it every upkeep round, so a
// SyncInterval log that no later append follows still syncs on the first
// round at least one interval after its last sync.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Flush()
}

// MaybeSnapshot writes an engine snapshot when the spacing policy says one
// is due and a record was appended since the last snapshot, then compacts
// WAL segments the snapshot covers. It reports whether a snapshot was
// written. The policy's "last failure" input is the engine's newest event
// time, so a RiskAware policy tightens spacing while events are arriving.
func (j *Journal) MaybeSnapshot(now time.Time) (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.policy == nil {
		return false, nil
	}
	interval := j.policy.Interval(now, j.engine.LastEvent())
	if interval <= 0 || now.Sub(j.lastSnap) < interval || int64(j.log.Count()) == j.covered {
		return false, nil
	}
	return true, j.snapshotLocked(now)
}

// Checkpoint forces a snapshot now, regardless of policy.
func (j *Journal) Checkpoint(now time.Time) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked(now)
}

func (j *Journal) snapshotLocked(now time.Time) error {
	// The ingest lock is held, so Count() and Snapshot() are a consistent
	// cut: every appended record is observed and vice versa.
	applied := j.log.Count()
	// The snapshot claims records [0, applied) are covered, so they must be
	// durable before the claim is: under interval/never fsync a crash could
	// otherwise persist a snapshot ahead of the on-disk WAL, and the next
	// recovery would replay from `applied`, skipping events re-appended at
	// the lower indices — loss outside the documented fsync-policy window.
	if err := j.log.Sync(); err != nil {
		return err
	}
	if err := WriteSnapshotFileFS(j.fs, j.snapPath, j.engine.Snapshot(), applied); err != nil {
		return err
	}
	err := j.log.Compact(applied)
	j.publish()
	if err != nil {
		return err
	}
	j.lastSnap, j.covered = now, int64(applied)
	return nil
}

// publish makes the log's count and segment count readable without mu.
// Callers hold mu, or own the journal before anyone else can see it.
func (j *Journal) publish() {
	j.walCount.Store(j.log.Count())
	j.walSegments.Store(int64(j.log.Segments()))
}

// WALCount returns how many records the WAL has ever held; WALSegments how
// many live segment files back it. Both feed the status views, and neither
// waits on an append in flight.
func (j *Journal) WALCount() uint64 { return j.walCount.Load() }

// WALSegments returns the live WAL segment count.
func (j *Journal) WALSegments() int { return int(j.walSegments.Load()) }

// ProbeSpace checks whether the journal's filesystem can allocate again by
// writing and fsyncing a tiny probe file in the WAL directory. The serving
// layer calls this to decide when to leave read-only mode after ENOSPC: a
// successful probe means an append is worth attempting. The probe is removed
// on every path.
func (j *Journal) ProbeSpace() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	f, err := j.fs.CreateTemp(j.dir, ".space-probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	defer j.fs.Remove(name)
	// A real ENOSPC can admit a 0-byte create and still fail the data write
	// or the flush, so probe all three steps with a block-ish payload.
	if _, err := f.Write(make([]byte, 512)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Close syncs and closes the WAL. Further ObserveBatch calls fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
