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
	"path/filepath"
	"sync"
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

// persistedSnapshot is the on-disk form of an Engine Snapshot plus the WAL
// position it covers.
type persistedSnapshot struct {
	Format     int        `json:"format"`
	SavedAt    time.Time  `json:"saved_at"`
	WALApplied uint64     `json:"wal_applied"`
	WindowNs   int64      `json:"window_ns"`
	Observed   uint64     `json:"observed"`
	Dropped    uint64     `json:"dropped"`
	LastEvent  time.Time  `json:"last_event"`
	Active     []walEvent `json:"active"`
}

// snapshotTempPattern names the temp files WriteSnapshotFile stages through;
// OpenJournal sweeps stale ones (crash or error path leftovers) on startup.
const snapshotTempPattern = ".snapshot-*"

// WriteSnapshotFile atomically persists an engine snapshot that covers the
// first applied WAL records: temp file, fsync, rename. A crash mid-write
// leaves the previous snapshot intact.
func WriteSnapshotFile(path string, snap Snapshot, applied uint64) error {
	return WriteSnapshotFileFS(iofault.Disk, path, snap, applied)
}

// WriteSnapshotFileFS is WriteSnapshotFile over an explicit filesystem, so
// fault-injection tests can fail or crash any step of the write protocol.
func WriteSnapshotFileFS(fsys iofault.FS, path string, snap Snapshot, applied uint64) error {
	fsys = iofault.Or(fsys)
	ps := persistedSnapshot{
		Format:     snapshotFormat,
		SavedAt:    time.Now().UTC(),
		WALApplied: applied,
		WindowNs:   int64(snap.Window),
		Observed:   snap.Observed,
		Dropped:    snap.Dropped,
		LastEvent:  snap.LastEvent,
		Active:     make([]walEvent, 0, len(snap.Active)),
	}
	for _, f := range snap.Active {
		ps.Active = append(ps.Active, toWalEvent(f))
	}
	data, err := json.Marshal(ps)
	if err != nil {
		return fmt.Errorf("risk: encoding snapshot: %w", err)
	}
	tmp, err := fsys.CreateTemp(filepath.Dir(path), snapshotTempPattern)
	if err != nil {
		return fmt.Errorf("risk: snapshot: %w", err)
	}
	// Every error path below must unlink the temp, or a disk-full snapshot
	// attempt strands partial files that themselves consume space. A crash
	// can still orphan one — OpenJournal sweeps those.
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return fmt.Errorf("risk: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return fmt.Errorf("risk: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmp.Name())
		return fmt.Errorf("risk: snapshot: %w", err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		fsys.Remove(tmp.Name())
		return fmt.Errorf("risk: snapshot: %w", err)
	}
	// The rename must be durable before it is acted on: the caller compacts
	// WAL segments the snapshot covers right after this returns, and a
	// crash that kept the unlinks but lost the rename would leave the old
	// snapshot pointing into a compacted-away WAL range.
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("risk: snapshot: syncing %s: %w", filepath.Dir(path), err)
	}
	return nil
}

// ReadSnapshotFile loads a persisted snapshot. A missing file returns
// os.ErrNotExist (callers treat that as "cold start").
func ReadSnapshotFile(path string) (Snapshot, uint64, error) {
	return ReadSnapshotFileFS(iofault.Disk, path)
}

// ReadSnapshotFileFS is ReadSnapshotFile over an explicit filesystem.
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
	snap := Snapshot{
		Window:    time.Duration(ps.WindowNs),
		Observed:  ps.Observed,
		Dropped:   ps.Dropped,
		LastEvent: ps.LastEvent,
		Active:    make([]trace.Failure, 0, len(ps.Active)),
	}
	for _, e := range ps.Active {
		snap.Active = append(snap.Active, e.failure())
	}
	return snap, ps.WALApplied, nil
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
	ws := WireSnapshot{
		WindowNs:  int64(snap.Window),
		Observed:  snap.Observed,
		Dropped:   snap.Dropped,
		LastEvent: snap.LastEvent,
		Active:    make([]walEvent, 0, len(snap.Active)),
	}
	for _, f := range snap.Active {
		ws.Active = append(ws.Active, toWalEvent(f))
	}
	return ws
}

// JournalConfig assembles a Journal.
type JournalConfig struct {
	// Engine is the engine to make durable. Required.
	Engine *Engine
	// WAL configures the log (Dir required). Policy/Interval/SegmentBytes
	// pass through to wal.Open.
	WAL wal.Options
	// FS is the filesystem the journal's snapshot machinery and recovery
	// reads (and, unless WAL.FS overrides it, the log) run over. Nil means
	// the real disk.
	// Fault-injection and crash-sweep tests substitute an iofault.MemFS or
	// iofault.Inject here.
	FS iofault.FS
	// SnapshotPolicy spaces periodic engine snapshots using a checkpoint
	// policy (checkpoint.Fixed for constant spacing, checkpoint.RiskAware
	// to snapshot more often while failures are arriving). Nil disables
	// periodic snapshots; the WAL alone still makes recovery exact, just
	// with unbounded replay length.
	SnapshotPolicy checkpoint.Policy
	// Now supplies the snapshot-spacing clock; defaults to time.Now.
	Now func() time.Time
	// Store, when set, receives every event the journal applies — both the
	// recovery replay (snapshot actives plus WAL tail, as one batch) and
	// live Observes — so the analytics dataset and the risk window rebuild
	// from one pass over one log instead of maintaining two recovery paths.
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
// validate → append → observe pipeline over one Engine, plus periodic
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
}

// OpenJournal opens (or creates) the durable state under cfg.WAL.Dir and
// returns the journal ready for Observe. Recovery is a failover onto the
// journal's own directory: a Standby restores the newest snapshot into the
// engine, its follower replays the WAL tail, and Promote opens the log for
// writing — one path for recovery and failover, with the store receiving
// the snapshot's actives and the tail as one batch. The engine must be
// freshly built (no events observed) or recovery equivalence is lost.
func OpenJournal(cfg JournalConfig) (*Journal, RecoveryStats, error) {
	var stats RecoveryStats
	if cfg.Engine == nil {
		return nil, stats, errors.New("risk: journal needs an engine")
	}
	if cfg.WAL.Dir == "" {
		return nil, stats, errors.New("risk: journal needs a WAL directory")
	}
	// One filesystem for everything under the WAL dir: cfg.FS wins, else the
	// WAL's own FS (so injecting at either layer injects both), else disk.
	fsys := cfg.FS
	if fsys == nil {
		fsys = cfg.WAL.FS
	}
	fsys = iofault.Or(fsys)

	// Sweep snapshot temp files stranded by a crash mid-write: they are
	// never valid state (the rename is what commits a snapshot) and on a
	// nearly-full disk their dead bytes matter.
	if ents, err := fsys.ReadDir(cfg.WAL.Dir); err == nil {
		for _, ent := range ents {
			if ok, _ := filepath.Match(snapshotTempPattern, ent.Name()); ok && !ent.IsDir() {
				if fsys.Remove(filepath.Join(cfg.WAL.Dir, ent.Name())) == nil {
					stats.TempsSwept++
				}
			}
		}
	}

	sb, err := NewStandby(StandbyConfig{Dir: cfg.WAL.Dir, Engine: cfg.Engine, Store: cfg.Store, FS: fsys})
	if err != nil {
		return nil, stats, err
	}
	j, err := sb.Promote(cfg.SnapshotPolicy, cfg.WAL, cfg.Now)
	swept := stats.TempsSwept
	stats = sb.rec
	stats.TempsSwept = swept
	return j, stats, err
}

// Engine returns the journaled engine (for scoring reads).
func (j *Journal) Engine() *Engine { return j.engine }

// Store returns the dataset store the journal applies events to, or nil.
func (j *Journal) Store() *store.Store { return j.store }

// ErrAppend marks a WAL-append failure inside Observe: the event was valid
// but could not be made durable. Serving layers treat it as a server-side
// fault (500), never a per-event rejection.
var ErrAppend = errors.New("risk: journal append failed")

// Observe durably ingests one event: validate against the catalog, append
// to the WAL (fsync per policy), then observe in memory and apply to the
// dataset store when one is configured. Events that fail validation are
// rejected before touching the log. A store rejection after the WAL accept
// is reported as ErrAppend: the event is durable and will reach both states
// on the next recovery, so the caller must treat the request as a server
// fault, not a rejection.
func (j *Journal) Observe(f trace.Failure) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.engine.Validate(f); err != nil {
		return err
	}
	if _, err := j.log.Append(EncodeEvent(f)); err != nil {
		// Double-wrap so callers can both classify (errors.Is ErrAppend) and
		// inspect the cause — iofault.IsDiskFull needs the ENOSPC to survive.
		return fmt.Errorf("%w: %w", ErrAppend, err)
	}
	if err := j.engine.Observe(f); err != nil {
		return err
	}
	if j.store != nil {
		if _, err := j.store.Append([]trace.Failure{f}); err != nil {
			return fmt.Errorf("%w: dataset store: %w", ErrAppend, err)
		}
	}
	return nil
}

// Sync flushes outstanding WAL appends regardless of fsync policy — the
// serving layer calls it on its maintenance tick and during shutdown so a
// quiet SyncInterval log never sits dirty for long.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Sync()
}

// MaybeSnapshot writes an engine snapshot when the spacing policy says one
// is due, then compacts WAL segments the snapshot covers. It reports
// whether a snapshot was written. The policy's "last failure" input is the
// engine's newest event time, so a RiskAware policy tightens spacing while
// events are arriving.
func (j *Journal) MaybeSnapshot(now time.Time) (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.policy == nil {
		return false, nil
	}
	interval := j.policy.Interval(now, j.engine.LastEvent())
	if interval <= 0 || now.Sub(j.lastSnap) < interval {
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
	if err := j.log.Compact(applied); err != nil {
		return err
	}
	j.lastSnap = now
	return nil
}

// WALCount returns how many records the WAL has ever held; WALSegments how
// many live segment files back it. Both feed the metrics endpoint.
func (j *Journal) WALCount() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Count()
}

// WALSegments returns the live WAL segment count.
func (j *Journal) WALSegments() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Segments()
}

// WALFirst returns the index of the first record still in the WAL.
func (j *Journal) WALFirst() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.First()
}

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

// Close syncs and closes the WAL. Further Observe calls fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
