// Package risk is the online half of the serving pipeline: it turns the
// offline conditional-probability analysis (internal/analysis, Section III
// of the DSN'13 paper) into a live per-node follow-up-failure risk signal.
//
// An Engine ingests failure events one at a time (Observe), keeps them in
// sliding per-system windows, and scores any node at any instant (Score,
// TopK) by combining the active events with a precomputed LiftTable: an
// event of category X on a node raises that node's risk toward
// P(failure within W | X) at node scope, raises its rack-mates' risk via
// the rack-scope conditional, and raises every other node of the system via
// the system-scope conditional. Each contribution decays linearly as the
// event ages out of the window, so risk relaxes back to the node's base
// rate — the operator loop the paper's Section XI argues for ("after event
// A, the chance of event B within window W jumps by factor k").
//
// The engine is deterministic (no internal clock; every query takes an
// explicit time) and safe for concurrent use.
package risk

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// Config assembles an Engine.
type Config struct {
	// Table is the precomputed lift table (analysis.BuildLiftTable); its
	// Window is the engine's sliding-window length.
	Table *analysis.LiftTable
	// Systems describes the systems the engine accepts events for.
	Systems []trace.SystemInfo
	// Layouts maps system IDs to machine-room layouts; systems without a
	// layout contribute no rack-scope risk.
	Layouts map[int]*layout.Layout
	// MaxEventsPerSystem bounds the retained events of one system; once
	// exceeded, the oldest are dropped even if still inside the window.
	// Zero means the default of 4096.
	MaxEventsPerSystem int
}

// DefaultMaxEventsPerSystem bounds per-system event retention when the
// config does not say otherwise.
const DefaultMaxEventsPerSystem = 4096

// Engine is the online scorer. Build one with New; all methods are safe for
// concurrent use.
type Engine struct {
	table   *analysis.LiftTable
	window  time.Duration
	systems map[int]trace.SystemInfo
	layouts map[int]*layout.Layout
	maxPer  int

	mu sync.RWMutex
	// events holds each system's retained events sorted by time (ties by
	// node, then category) — the sliding window's backing store.
	events map[int][]trace.Failure
	// observed counts every accepted event since construction.
	observed uint64
	// dropped counts events evicted by the per-system retention bound.
	dropped uint64
	// last is the newest accepted event time.
	last time.Time
}

// New builds an engine over a lift table and system catalog.
func New(cfg Config) (*Engine, error) {
	if cfg.Table == nil {
		return nil, fmt.Errorf("risk: nil lift table")
	}
	if cfg.Table.Window <= 0 {
		return nil, fmt.Errorf("risk: lift table has non-positive window %v", cfg.Table.Window)
	}
	if len(cfg.Systems) == 0 {
		return nil, fmt.Errorf("risk: no systems")
	}
	maxPer := cfg.MaxEventsPerSystem
	if maxPer <= 0 {
		maxPer = DefaultMaxEventsPerSystem
	}
	e := &Engine{
		table:   cfg.Table,
		window:  cfg.Table.Window,
		systems: make(map[int]trace.SystemInfo, len(cfg.Systems)),
		layouts: cfg.Layouts,
		maxPer:  maxPer,
		events:  make(map[int][]trace.Failure),
	}
	for _, s := range cfg.Systems {
		e.systems[s.ID] = s
	}
	return e, nil
}

// FromDataset builds the whole offline-to-online pipeline in one call: an
// analyzer over ds, a lift table for window w, and an engine over it.
func FromDataset(ds *trace.Dataset, w time.Duration) (*Engine, error) {
	return FromAnalyzer(analysis.New(ds), w)
}

// FromAnalyzer builds an engine from an existing analyzer, avoiding a
// second index build when the caller already has one — e.g. the versioned
// dataset store's boot snapshot.
func FromAnalyzer(a *analysis.Analyzer, w time.Duration) (*Engine, error) {
	table, err := a.BuildLiftTable(a.DS.Systems, w)
	if err != nil {
		return nil, err
	}
	return New(Config{Table: table, Systems: a.DS.Systems, Layouts: a.DS.Layouts})
}

// Window returns the engine's sliding-window length.
func (e *Engine) Window() time.Duration { return e.window }

// Table returns the lift table the engine scores with.
func (e *Engine) Table() *analysis.LiftTable { return e.table }

// Systems returns the engine's system catalog in ascending ID order.
func (e *Engine) Systems() []trace.SystemInfo {
	out := make([]trace.SystemInfo, 0, len(e.systems))
	for _, s := range e.systems {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// eventLess orders events by time, breaking ties by node then category so
// replaying the same feed always yields the same internal state.
func eventLess(a, b trace.Failure) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Category < b.Category
}

// Validate checks one event against the engine's catalog without mutating
// any state: known system, node in range, valid category, non-zero time.
// The durable ingest path (Journal) validates before appending to the WAL
// so the log never records events a replay would reject.
func (e *Engine) Validate(f trace.Failure) error {
	s, ok := e.systems[f.System]
	if !ok {
		return fmt.Errorf("risk: unknown system %d", f.System)
	}
	if f.Node < 0 || f.Node >= s.Nodes {
		return fmt.Errorf("risk: node %d out of range [0,%d) for system %d", f.Node, s.Nodes, f.System)
	}
	if f.Category < trace.Environment || f.Category > trace.Undetermined {
		return fmt.Errorf("risk: invalid category %d", int(f.Category))
	}
	if f.Time.IsZero() {
		return fmt.Errorf("risk: event has zero time")
	}
	return nil
}

// Observe ingests one failure event. It validates the event against the
// catalog, inserts it in time order (late arrivals are fine as long as they
// are still inside some retention bound), and slides the system's window
// forward: events older than the system's newest event minus the window are
// pruned immediately, so memory stays bounded without a background task.
func (e *Engine) Observe(f trace.Failure) error {
	if err := e.Validate(f); err != nil {
		return err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	evs := e.events[f.System]
	i := sort.Search(len(evs), func(i int) bool { return !eventLess(evs[i], f) })
	evs = append(evs, trace.Failure{})
	copy(evs[i+1:], evs[i:])
	evs[i] = f
	// Slide: the newest event anchors the live window.
	newest := evs[len(evs)-1].Time
	evs = pruneBefore(evs, newest.Add(-e.window))
	if over := len(evs) - e.maxPer; over > 0 {
		evs = append(evs[:0], evs[over:]...)
		e.dropped += uint64(over)
	}
	e.events[f.System] = evs
	e.observed++
	if f.Time.After(e.last) {
		e.last = f.Time
	}
	return nil
}

// pruneBefore drops events at or before the cutoff (the window is the
// half-open interval (cutoff, newest]).
func pruneBefore(evs []trace.Failure, cutoff time.Time) []trace.Failure {
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Time.After(cutoff) })
	if i == 0 {
		return evs
	}
	return append(evs[:0], evs[i:]...)
}

// LastEvent returns the newest accepted event time (zero before any
// event) — the "last failure" input to snapshot-spacing policies.
func (e *Engine) LastEvent() time.Time {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.last
}

// Lag returns how far the engine's newest event trails now — the "engine
// lag" a feed monitor alerts on. It returns zero before any event.
func (e *Engine) Lag(now time.Time) time.Duration {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.last.IsZero() {
		return 0
	}
	if d := now.Sub(e.last); d > 0 {
		return d
	}
	return 0
}

// Counts returns how many events the engine retains and how many it has
// accepted since construction: Snapshot's len(Active) and Observed without
// the copy.
func (e *Engine) Counts() (active int, observed uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, evs := range e.events {
		active += len(evs)
	}
	return active, e.observed
}

// Snapshot is a race-free copy of the engine's state at one instant.
type Snapshot struct {
	// Window is the sliding-window length.
	Window time.Duration
	// Observed counts every event accepted since construction.
	Observed uint64
	// Dropped counts events evicted by the retention bound.
	Dropped uint64
	// LastEvent is the newest accepted event time (zero before any event).
	LastEvent time.Time
	// Active holds the retained events of every system, sorted by time
	// (ties by system, node, category).
	Active []trace.Failure
}

// Snapshot returns a consistent copy of the engine state: the retained
// events of every system plus the feed counters. The copy is detached —
// mutating it does not affect the engine.
func (e *Engine) Snapshot() Snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	snap := Snapshot{
		Window:    e.window,
		Observed:  e.observed,
		Dropped:   e.dropped,
		LastEvent: e.last,
	}
	for _, evs := range e.events {
		snap.Active = append(snap.Active, evs...)
	}
	sortSnapshotEvents(snap.Active)
	return snap
}

// sortSnapshotEvents applies the canonical snapshot event order — shared by
// Engine.Snapshot and the cross-shard MergeSnapshots so merged and direct
// snapshots collate identically.
func sortSnapshotEvents(active []trace.Failure) {
	sort.Slice(active, func(i, j int) bool {
		a, b := active[i], active[j]
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
}

// Restore replaces the engine's mutable state with a previously captured
// Snapshot — the recovery half of crash-safe serving. The snapshot must
// come from an engine with the same window, and every event must validate
// against this engine's catalog; on any error the engine is left unchanged.
// Restoring a snapshot and then replaying the WAL tail yields state
// identical to an uninterrupted run, because Observe is deterministic.
func (e *Engine) Restore(snap Snapshot) error {
	if snap.Window != e.window {
		return fmt.Errorf("risk: snapshot window %v does not match engine window %v", snap.Window, e.window)
	}
	events := make(map[int][]trace.Failure)
	for _, f := range snap.Active {
		if err := e.Validate(f); err != nil {
			return fmt.Errorf("risk: snapshot event rejected: %w", err)
		}
		// Snapshot order is (time, system, node, category); per system that
		// is exactly the engine's (time, node, category) insertion order.
		events[f.System] = append(events[f.System], f)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events = events
	e.observed = snap.Observed
	e.dropped = snap.Dropped
	e.last = snap.LastEvent
	return nil
}
