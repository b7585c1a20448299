package server

import (
	"net/http"
	"strconv"
	"time"

	"github.com/hpcfail/hpcfail/internal/store"
)

// The one status read: /healthz, /readyz, GET /v1/datasets and /metrics
// render a dataset from one walk of its fabric (fabric.status), so no two
// views can disagree about a shard or a total.

// shardRow is one shard's status. The exported fields are its /readyz row;
// the rest feed /metrics and the dataset totals.
type shardRow struct {
	Shard  int    `json:"shard"`
	State  string `json:"state"`
	Reason string `json:"reason,omitempty"`
	// Standby is "warm", "warming" or "resync-needed" ("" without one).
	Standby string `json:"standby,omitempty"`
	Systems int    `json:"systems"`
	// ReadOnly marks a shard whose WAL disk is full: reads serve, writes 503.
	ReadOnly bool `json:"read_only,omitempty"`

	ready        bool // Ready, with any standby warm
	version      uint64
	events       int
	failovers    uint64
	lag          uint64 // WAL records the standby trails its leader by
	walSegments  int
	breakerOpen  bool
	breakerTrips uint64
	active       int
	engineLag    time.Duration
	counters
}

// row reads the shard's status from one view of its components. Nothing
// here waits on the write path: the journal and the standby publish what
// it reads, so a probe never queues behind an fsync or a standby catchup.
func (sh *shard) row(sup *store.Supervisor, now time.Time) shardRow {
	sh.mu.RLock()
	st, eng, j, last, sb, carry := sh.st, sh.engine, sh.journal, sh.lastJournal, sh.standby, sh.carry
	sh.mu.RUnlock()
	state, snap := sup.State(sh.idx), st.Snapshot()
	r := shardRow{
		Shard:     sh.idx,
		State:     state.String(),
		Reason:    sup.Reason(sh.idx),
		Systems:   len(sh.systems),
		ReadOnly:  sh.diskFull.Load(),
		ready:     state == store.ShardReady,
		version:   snap.Version(),
		events:    snap.Events(),
		failovers: sh.failovers.Load(),
		engineLag: eng.Lag(now),
		counters:  carry.plus(countersOf(st, eng, last)),
	}
	r.active, _ = eng.Counts()
	r.breakerOpen, r.breakerTrips = sh.breaker.snapshot()
	if j != nil {
		r.walSegments = j.WALSegments()
	}
	if sb == nil {
		return r
	}
	switch {
	case sb.ResyncNeeded():
		// Replication hit a compaction gap: the standby can never catch up
		// again and must be rebuilt. Distinct from "warming" so operators
		// see a dead end, not a slow drain.
		r.Standby, r.ready = "resync-needed", false
	case sb.Warm():
		r.Standby = "warm"
	default:
		r.Standby, r.ready = "warming", false
	}
	// Replication lag in records: the leader's appends minus the standby's
	// applies. A dead leader's journal keeps its final count, so the lag
	// stays exact until promotion without reading the log here.
	if last != nil {
		if c, a := last.WALCount(), sb.Applied(); c > a {
			r.lag = c - a
		}
	}
	return r
}

// datasetStatus is one dataset's status: a row per shard and the totals.
type datasetStatus struct {
	shards  []shardRow
	systems int
	window  time.Duration
	// total sums the rows, except that version and engineLag are maxima
	// and ready, ReadOnly and breakerOpen say whether all, any and any
	// shard are.
	total shardRow
}

// status walks the fabric once. A recovering shard (WAL replay in
// OpenJournal) never shows here — construction is synchronous — but a
// standby still draining its leader's log does, and so does any shard that
// died or is mid-promotion.
func (f *fabric) status() datasetStatus {
	d := datasetStatus{shards: make([]shardRow, f.n()), systems: len(f.fleet), window: f.window, total: shardRow{ready: true}}
	now, t := f.now(), &d.total
	for i, sh := range f.shards {
		r := sh.row(f.sup, now)
		d.shards[i] = r
		t.ready = t.ready && r.ready
		t.ReadOnly = t.ReadOnly || r.ReadOnly
		t.version = max(t.version, r.version)
		t.events += r.events
		t.walSegments += r.walSegments
		t.breakerOpen = t.breakerOpen || r.breakerOpen
		t.breakerTrips += r.breakerTrips
		t.active += r.active
		t.engineLag = max(t.engineLag, r.engineLag)
		t.counters = t.counters.plus(r.counters)
	}
	return d
}

// readiness is the dataset's /readyz status. A read-only dataset still
// serves reads — load balancers should keep routing queries — but the
// status tells operators writes are being rejected.
func (d datasetStatus) readiness() map[string]any {
	status := "ready"
	switch {
	case !d.total.ready:
		status = "not-ready"
	case d.total.ReadOnly:
		status = "read-only"
	}
	return map[string]any{"status": status, "shards": d.shards}
}

// entry is the dataset's row in the dataset API's answers.
func (d datasetStatus) entry(name, state string) datasetStatusJSON {
	return datasetStatusJSON{
		Name:           name,
		State:          state,
		Systems:        d.systems,
		DatasetVersion: d.total.version,
		Shards:         len(d.shards),
		ReadOnly:       d.total.ReadOnly,
	}
}

// handleHealthz is pure liveness: the process is up and can read its own
// state. Shard health lives in /readyz — a fleet with a dead shard is alive
// but not fully ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	d := s.fabric.status()
	body := map[string]any{
		"status":          "ok",
		"systems":         d.systems,
		"window":          d.window.String(),
		"dataset_version": d.total.version,
		"dataset_events":  d.total.events,
	}
	if len(d.shards) > 1 {
		body["shards"] = len(d.shards)
	}
	w.Header().Set("X-Dataset-Version", strconv.FormatUint(d.total.version, 10))
	s.writeJSON(w, http.StatusOK, body)
}

// handleReadyz is the readiness gate: 200 only when every shard is Ready
// and every configured standby has warmed (fully drained its leader's WAL
// at least once). Load balancers should route on this, not /healthz, so a
// server mid-recovery or mid-failover drains instead of serving partials.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := s.fabric.status().readiness()
	code := http.StatusOK
	if body["status"] == "not-ready" {
		code = http.StatusServiceUnavailable
	}
	// Named tenants report their own readiness per row; a read-only or
	// recovering tenant degrades only its own routes, so the process-level
	// code (what load balancers route on) stays the default tenant's.
	datasets := map[string]any{}
	s.eachTenant(func(name string, ts *Server) { datasets[name] = ts.fabric.status().readiness() })
	if len(datasets) > 0 {
		body["datasets"] = datasets
	}
	s.writeJSON(w, code, body)
}
