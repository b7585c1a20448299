// Package server is the HTTP serving layer over the toolkit: a JSON API
// exposing the online risk engine (internal/risk) and the offline
// conditional-probability analysis (internal/analysis) of one in-memory
// dataset.
//
// Endpoints:
//
//	GET  /v1/risk/{node}?system=S     one node's live follow-up-failure risk
//	GET  /v1/risk/top?k=K&system=S    the K highest-risk nodes right now
//	GET  /v1/condprob?anchor=&target=&window=&scope=&group=
//	                                  cached conditional-vs-baseline query
//	GET  /v1/correlations?window=&scope=&system=&min_support=&min_confidence=
//	                                  mined correlation-rule graph (internal/correlate)
//	GET  /v1/anomalies?system=&k=     vicinity anomaly ranking
//	GET  /v1/rates?window=&scope=     failure-rate and follow-up lift tables
//	GET  /v1/compare/{condprob,rates}?datasets=a,b,...
//	                                  one query across named datasets, diffed
//	GET  /v1/snapshot                 canonical engine state (recovery checks)
//	POST /v1/events                   feed failure events into the engine
//	GET  /healthz                     liveness
//	GET  /metrics                     Prometheus text metrics
//
// The server answers every request from an immutable snapshot of a
// versioned dataset store (internal/store): handlers pin one snapshot, so a
// response is internally consistent even while POST /v1/events advances the
// dataset underneath. Responses carry the snapshot's version in an
// X-Dataset-Version header, and analysis cache keys embed it, so a cached
// answer can never leak across dataset versions.
//
// The cached analysis routes (condprob, correlations, anomalies) and the
// comparative endpoints built on them share one query executor (exec.go):
// a route supplies a canonical key, a per-shard part and a render, and the
// executor caches on the canonicalized query, deduplicates concurrent
// identical queries singleflight-style, gates compute on each shard's
// circuit breaker (degrading to cached answers when compute keeps
// failing), and scatter-gathers across shards. Every request runs under a
// timeout and per-route admission control (overload is shed with 429 +
// Retry-After). With a risk.Journal configured, POST /v1/events is
// write-ahead logged so acked events survive a crash, and
// X-Idempotency-Key makes retries safe. Serve shuts down gracefully when
// its context is cancelled, joining in-flight handlers before tearing down
// shared state.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/registry"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// Config assembles a Server.
type Config struct {
	// Dataset is the in-memory dataset the server answers from; the server
	// wraps it in a private versioned store. Required unless Store is set.
	Dataset *trace.Dataset
	// Store, when set, is the versioned dataset store the server resolves
	// requests against, and Dataset is ignored. Pass the same store the
	// journal applies events to so batch history and live ingest share one
	// canonical event log.
	Store *store.Store
	// FrozenDataset stops POST /v1/events from advancing the server's own
	// store: accepted events still feed the risk engine, but condprob
	// answers stay pinned to the boot dataset. A journal that owns the
	// store keeps advancing it regardless.
	FrozenDataset bool
	// Window is the risk engine's sliding window (and the lift table's
	// look-ahead). Defaults to one day. Ignored when Engine is set.
	Window time.Duration
	// Engine overrides the engine built from Dataset/Window — pass one to
	// reuse a pre-built lift table.
	Engine *risk.Engine
	// Journal, when set, makes ingestion durable: POST /v1/events appends
	// to its write-ahead log before the engine observes anything, and the
	// serve loop drives its fsync/snapshot maintenance. The journal must
	// wrap the same engine the server scores with.
	Journal *risk.Journal
	// CorrelationWindows are the time windows the per-shard correlation-rule
	// miners maintain incrementally and /v1/correlations can answer for.
	// Empty means correlate.DefaultWindows (day and week).
	CorrelationWindows []time.Duration
	// RequestTimeout bounds each request's computation; defaults to 10s.
	RequestTimeout time.Duration
	// CacheSize bounds the condprob result cache; defaults to 256 entries.
	CacheSize int
	// Limits overrides per-route admission limits; routes not listed keep
	// their defaults (see defaultLimits). A zero-Concurrency entry makes
	// that route unlimited.
	Limits map[string]RouteLimit
	// BreakerThreshold is how many consecutive condprob compute failures
	// open the circuit; defaults to 5.
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open before one trial
	// compute probes recovery; defaults to 10s.
	BreakerCooldown time.Duration
	// Middleware, when set, wraps the routed handler — the chaos injector
	// (internal/faultinject) plugs in here.
	Middleware func(http.Handler) http.Handler
	// Shards, when >= 1, splits the fleet into that many supervised fault
	// domains by consistent hashing on system ID: per-shard stores, engines,
	// WALs and breakers, scatter-gather for cross-system queries, and
	// partial results when a shard is down. Requires Dataset; Store, Engine
	// and Journal must be nil (sharded mode builds its own). Counts above
	// the system count are clamped. Zero keeps the legacy single-store
	// server.
	Shards int
	// ShardWAL configures per-shard durability in sharded mode: Dir is the
	// root under which shard i keeps its WAL at shard-NNN/; the remaining
	// options pass through to wal.Open. An empty Dir disables durability
	// (and standbys).
	ShardWAL wal.Options
	// Standby, in sharded mode with ShardWAL.Dir set, gives every shard a
	// warm standby that tails the leader's WAL and is promoted automatically
	// when the shard dies.
	Standby bool
	// SnapshotPolicy spaces periodic per-shard engine snapshots in sharded
	// mode (see risk.JournalConfig.SnapshotPolicy).
	SnapshotPolicy checkpoint.Policy
	// ShardDeadline bounds one shard's slice of a scatter-gather query;
	// defaults to DefaultShardDeadline.
	ShardDeadline time.Duration
	// HeartbeatInterval spaces supervision ticks; defaults to
	// DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// HeartbeatDeadline expires a Ready shard that has not heartbeaten;
	// defaults to store.DefaultHeartbeatDeadline.
	HeartbeatDeadline time.Duration
	// SpaceProbeInterval spaces the disk-space probes that let a shard leave
	// read-only mode after its WAL filled (see DESIGN.md §5i). Zero means
	// the 5s default; negative probes on every gated write attempt (tests
	// use that for determinism).
	SpaceProbeInterval time.Duration
	// TenantRoot, when set, is the directory the dataset registry keeps
	// named tenants under: <TenantRoot>/<name>/tenant.json next to that
	// tenant's WAL tree at <TenantRoot>/<name>/shard-NNN/. Tenants found
	// there are reopened at boot. Empty keeps named tenants memory-only
	// (they still work, but do not survive a restart).
	TenantRoot string
	// TenantWAL is the per-shard durability template for named tenants:
	// every option passes through to wal.Open with Dir rewritten to the
	// tenant's own tree. Ignored when TenantRoot is empty.
	TenantWAL wal.Options
	// AdminToken, when set, gates the dataset-management API (POST/DELETE
	// /v1/datasets) and, via X-Admin-Token, bypasses per-dataset tokens.
	// Empty leaves the admin API open.
	AdminToken string
	// OnStart, when set, is invoked in its own goroutine once ServeListener
	// is accepting — the hook the shard-chaos injector uses to reach the
	// running server.
	OnStart func(ctx context.Context, s *Server)
	// Now supplies the clock; defaults to time.Now. Tests inject a fake.
	Now func() time.Time
	// Logf, when set, receives serve-lifecycle log lines.
	Logf func(format string, args ...any)
}

// defaultLimits are the per-route admission bounds: the condprob compute
// path is the expensive one and gets the tightest concurrency; reads and
// ingest are cheap and get generous bounds that still stop a stampede.
func defaultLimits() map[string]RouteLimit {
	return map[string]RouteLimit{
		"/v1/condprob":     {Concurrency: 2 * runtime.GOMAXPROCS(0), Queue: 64},
		"/v1/correlations": {Concurrency: 2 * runtime.GOMAXPROCS(0), Queue: 64},
		"/v1/anomalies":    {Concurrency: 2 * runtime.GOMAXPROCS(0), Queue: 64},
		"/v1/risk/top":     {Concurrency: 32, Queue: 128},
		"/v1/risk/{node}":  {Concurrency: 32, Queue: 128},
		"/v1/events":       {Concurrency: 16, Queue: 128},
		"/v1/snapshot":     {Concurrency: 2, Queue: 8},
	}
}

// Server answers the API over one dataset, split into one or more
// supervised shards. Build with New; the zero value is not usable.
type Server struct {
	fabric  *fabric
	frozen  bool
	cache   *resultCache
	metrics *metrics
	idem    *idemCache
	limits  map[string]*limiter
	wrap    func(http.Handler) http.Handler
	timeout time.Duration
	now     func() time.Time
	logf    func(format string, args ...any)
	// inflight tracks running request handlers so shutdown can join them
	// before tearing down shared state.
	inflight sync.WaitGroup
	// base is the lifecycle context detached computations run under, so a
	// singleflight leader hanging up does not fail its followers.
	base context.Context

	// name is the dataset this server answers for: defaultTenantName on the
	// root server, the tenant's canonical name on registry-built children.
	name string
	// quota is the tenant's resource quota (zero on the root server).
	quota registry.Quota
	// reg, tmpl and adminToken exist only on the root server: the named
	// tenant registry, the Config template children derive from, and the
	// operator token gating the dataset-management API.
	reg        *registry.Registry
	tmpl       Config
	adminToken string
	// routesOnce/routeTab lazily build the per-tenant route table shared by
	// the root mux and the /v1/d/{dataset} dispatcher.
	routesOnce sync.Once
	routeTab   map[string]http.Handler
}

// New builds the root server over the config's store (or a private store
// over its dataset) and wires up the named-dataset registry: tenants
// persisted under cfg.TenantRoot are reopened, and new ones can be created
// through the dataset API. The root server itself is the "default" tenant.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.tmpl = cfg
	s.adminToken = cfg.AdminToken
	reg, err := registry.New(registry.Config{
		Root:  cfg.TenantRoot,
		Build: s.buildTenantResource,
		Logf:  s.logf,
	})
	if err != nil {
		return nil, err
	}
	s.reg = reg
	if err := reg.OpenAll(); err != nil {
		reg.CloseAll()
		return nil, fmt.Errorf("server: reopening datasets: %w", err)
	}
	return s, nil
}

// newServer builds one dataset's serving stack — store, risk engine (lift
// table, sliding windows), shard fabric, caches, admission — without any
// registry wiring. With cfg.Shards set, the dataset is partitioned into
// supervised fault domains — see Config.Shards. It is the constructor both
// for the root server (via New) and for registry-built tenant children.
func newServer(cfg Config) (*Server, error) {
	w := cfg.Window
	if w <= 0 {
		w = trace.Day
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var fab *fabric
	if cfg.Shards >= 1 {
		var err error
		if fab, err = newShardedFabric(cfg, cfg.Shards, w, now, logf); err != nil {
			return nil, err
		}
	} else {
		st := cfg.Store
		if st == nil {
			if cfg.Dataset == nil {
				return nil, fmt.Errorf("server: nil dataset")
			}
			var err error
			if st, err = store.New(cfg.Dataset); err != nil {
				return nil, fmt.Errorf("server: %w", err)
			}
		}
		boot := st.Snapshot()
		if len(boot.Dataset().Systems) == 0 {
			return nil, fmt.Errorf("server: dataset has no systems")
		}
		engine := cfg.Engine
		if engine == nil && cfg.Journal != nil {
			engine = cfg.Journal.Engine()
		}
		if engine == nil {
			var err error
			if engine, err = risk.FromAnalyzer(boot.Analyzer(), w); err != nil {
				return nil, err
			}
		}
		br := newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, now)
		var err error
		if fab, err = newSingleFabric(st, engine, cfg.Journal, br, cfg, now, logf); err != nil {
			return nil, err
		}
	}
	switch {
	case cfg.SpaceProbeInterval < 0:
		fab.probeEvery = 0 // probe on every gated write attempt
	case cfg.SpaceProbeInterval == 0:
		fab.probeEvery = 5 * time.Second
	default:
		fab.probeEvery = cfg.SpaceProbeInterval
	}
	timeout := cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	cacheSize := cfg.CacheSize
	if cacheSize <= 0 {
		cacheSize = 256
	}
	limits := defaultLimits()
	for route, lim := range cfg.Limits {
		limits[route] = lim
	}
	limiters := make(map[string]*limiter, len(limits))
	for route, lim := range limits {
		limiters[route] = newLimiter(lim)
	}
	return &Server{
		fabric:  fab,
		frozen:  cfg.FrozenDataset,
		cache:   newResultCache(cacheSize),
		metrics: newMetrics(),
		idem:    newIdemCache(1024),
		limits:  limiters,
		wrap:    cfg.Middleware,
		timeout: timeout,
		now:     now,
		logf:    logf,
		base:    context.Background(),
		name:    defaultTenantName,
	}, nil
}

// Engine returns shard 0's risk engine (the server's whole engine in the
// single-shard configuration) so callers can pre-seed events.
func (s *Server) Engine() *risk.Engine {
	_, eng, _ := s.fabric.shards[0].view()
	return eng
}

// Store returns shard 0's versioned dataset store (the server's whole store
// in the single-shard configuration).
func (s *Server) Store() *store.Store {
	st, _, _ := s.fabric.shards[0].view()
	return st
}

// Handler returns the server's routed HTTP handler, wrapped in the
// configured middleware (chaos injection in tests) when one is set. The
// unprefixed routes serve the default tenant; the same routes under
// /v1/d/{dataset}/ resolve a named tenant from the registry first.
func (s *Server) Handler() http.Handler {
	rt := s.routes()
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", rt["/healthz"])
	mux.Handle("GET /readyz", rt["/readyz"])
	mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.Handle("GET /v1/risk/top", rt["/v1/risk/top"])
	mux.Handle("GET /v1/risk/{node}", rt["/v1/risk/{node}"])
	mux.Handle("GET /v1/condprob", rt["/v1/condprob"])
	mux.Handle("GET /v1/correlations", rt["/v1/correlations"])
	mux.Handle("GET /v1/anomalies", rt["/v1/anomalies"])
	mux.Handle("GET /v1/snapshot", rt["/v1/snapshot"])
	mux.Handle("GET /v1/rates", rt["/v1/rates"])
	mux.Handle("POST /v1/events", rt["/v1/events"])
	// Tenant-scoped mirrors of every dataset route. The dispatcher resolves
	// the tenant, then reuses that tenant's own instrumented handler, so a
	// named tenant gets the same admission, timeout and metrics treatment.
	mux.Handle("GET /v1/d/{dataset}/healthz", s.tenantRoute("/healthz"))
	mux.Handle("GET /v1/d/{dataset}/readyz", s.tenantRoute("/readyz"))
	mux.Handle("GET /v1/d/{dataset}/risk/top", s.tenantRoute("/v1/risk/top"))
	mux.Handle("GET /v1/d/{dataset}/risk/{node}", s.tenantRoute("/v1/risk/{node}"))
	mux.Handle("GET /v1/d/{dataset}/condprob", s.tenantRoute("/v1/condprob"))
	mux.Handle("GET /v1/d/{dataset}/correlations", s.tenantRoute("/v1/correlations"))
	mux.Handle("GET /v1/d/{dataset}/anomalies", s.tenantRoute("/v1/anomalies"))
	mux.Handle("GET /v1/d/{dataset}/snapshot", s.tenantRoute("/v1/snapshot"))
	mux.Handle("GET /v1/d/{dataset}/rates", s.tenantRoute("/v1/rates"))
	mux.Handle("POST /v1/d/{dataset}/events", s.tenantRoute("/v1/events"))
	// Comparative analytics and the dataset-management API live on the root
	// server only.
	mux.Handle("GET /v1/compare/condprob", s.instrument("/v1/compare/condprob", s.handleCompareCondProb))
	mux.Handle("GET /v1/compare/rates", s.instrument("/v1/compare/rates", s.handleCompareRates))
	mux.Handle("POST /v1/datasets", s.instrument("/v1/datasets", s.handleDatasetCreate))
	mux.Handle("GET /v1/datasets", s.instrument("/v1/datasets", s.handleDatasetList))
	mux.Handle("DELETE /v1/datasets/{dataset}", s.instrument("/v1/datasets/{dataset}", s.handleDatasetDelete))
	if s.wrap != nil {
		return s.wrap(mux)
	}
	return mux
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with admission control, the per-request
// timeout, in-flight tracking for graceful shutdown, and metrics. Requests
// beyond a route's concurrency and queue bounds are shed with 429 and a
// Retry-After hint before any work happens.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	lim := s.limits[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		release, ok := lim.admit(r.Context())
		if !ok {
			s.metrics.shed.Add(1)
			sw.Header().Set("Retry-After", retryAfter)
			s.writeError(sw, http.StatusTooManyRequests, fmt.Errorf("overloaded: %s concurrency limit reached", route))
			s.metrics.observe(route, sw.code, s.now().Sub(start))
			return
		}
		s.inflight.Add(1)
		defer func() {
			release()
			s.inflight.Done()
		}()
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		h(sw, r.WithContext(ctx))
		s.metrics.observe(route, sw.code, s.now().Sub(start))
	})
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logf("server: encoding response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, apiError{Error: err.Error()})
}

// handleHealthz is pure liveness: the process is up and can read its own
// state. Shard health lives in /readyz — a fleet with a dead shard is alive
// but not fully ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	f := s.fabric
	body := map[string]any{
		"status":          "ok",
		"systems":         len(f.fleet),
		"window":          f.window.String(),
		"dataset_version": f.maxVersion(),
		"dataset_events":  f.totalEvents(),
	}
	if f.n() > 1 {
		body["shards"] = f.n()
	}
	w.Header().Set("X-Dataset-Version", strconv.FormatUint(f.maxVersion(), 10))
	s.writeJSON(w, http.StatusOK, body)
}

// handleReadyz is the readiness gate: 200 only when every shard is Ready
// and every configured standby has warmed (fully drained its leader's WAL
// at least once). Load balancers should route on this, not /healthz, so a
// server mid-recovery or mid-failover drains instead of serving partials.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, rows := s.fabric.status()
	code := http.StatusOK
	status := "ready"
	switch {
	case !ready:
		code = http.StatusServiceUnavailable
		status = "not-ready"
	case s.fabric.readOnly():
		// Reads still serve — load balancers should keep routing queries —
		// but the status tells operators writes are being rejected.
		status = "read-only"
	}
	body := map[string]any{"status": status, "shards": rows}
	// Named tenants report their own readiness per row; a read-only or
	// recovering tenant degrades only its own routes, so the process-level
	// code (what load balancers route on) stays the default tenant's.
	datasets := map[string]any{}
	s.eachTenant(func(name string, ts *Server) {
		tready, trows := ts.fabric.status()
		tstatus := "ready"
		switch {
		case !tready:
			tstatus = "not-ready"
		case ts.fabric.readOnly():
			tstatus = "read-only"
		}
		datasets[name] = map[string]any{"status": tstatus, "shards": trows}
	})
	if len(datasets) > 0 {
		body["datasets"] = datasets
	}
	s.writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// One row per dataset: the default tenant renders unlabeled (the exact
	// pre-registry exposition, so dashboards and the replay SLO gate keep
	// working), named tenants render the same families with a dataset label.
	rows := []metricsRow{{ds: "", m: s.metrics, g: s.gatherGauges()}}
	s.eachTenant(func(name string, ts *Server) {
		rows = append(rows, metricsRow{ds: name, m: ts.metrics, g: ts.gatherGauges()})
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeMetricsRows(w, rows)
}

// gatherGauges collects the point-in-time gauge values for this server's
// metrics row.
func (s *Server) gatherGauges() gauges {
	f := s.fabric
	g := gauges{
		cacheEntries:  s.cache.Len(),
		readOnlyEntry: f.roEntries.Load(),
		walAppendErrs: f.walAppendErrs.Load(),
		admission:     make(map[string]admissionGauge, len(s.limits)),
	}
	now := s.now()
	for i, sh := range f.shards {
		st, eng, j := sh.view()
		esnap := eng.Snapshot()
		dsnap := st.Snapshot()
		g.activeEvents += len(esnap.Active)
		g.observedEvents += esnap.Observed
		g.engineLag = max(g.engineLag, eng.Lag(now))
		g.datasetVersion = max(g.datasetVersion, dsnap.Version())
		g.datasetEvents += dsnap.Events()
		g.storeAppends += st.Appends()
		g.storeRebuilds += st.Rebuilds()
		// Any shard's open circuit reads as open; trips sum across shards.
		open, trips := sh.breaker.snapshot()
		g.breakerOpen = g.breakerOpen || open
		g.breakerTrips += trips
		sg := shardGauge{
			state:     f.sup.State(i).String(),
			healthy:   f.sup.State(i) == store.ShardReady,
			version:   dsnap.Version(),
			failovers: sh.failovers.Load(),
			diskFull:  sh.diskFull.Load(),
		}
		g.readOnly = g.readOnly || sg.diskFull
		if j != nil {
			g.walRecords += j.WALCount()
			g.walSegments += j.WALSegments()
		}
		// Replication lag in records: leader appends minus standby applies
		// while the leader lives; once it is dead, what the standby can
		// still read from the log past its position.
		if sb := sh.getStandby(); sb != nil {
			sg.hasStandby = true
			if j != nil {
				if c, a := j.WALCount(), sb.Applied(); c > a {
					sg.lag = c - a
				}
			} else if pending, err := sb.Pending(); err == nil {
				sg.lag = pending
			}
		}
		g.shards = append(g.shards, sg)
	}
	for route, lim := range s.limits {
		if lim == nil {
			continue
		}
		g.admission[route] = admissionGauge{
			inflight: lim.inflight.Load(),
			queued:   lim.queued.Load(),
			peak:     lim.peak.Load(),
			shed:     lim.shed.Load(),
		}
	}
	return g
}

// handleSnapshot serves the engine's full observable state in the same
// canonical form the on-disk snapshot uses. The kill-and-recover test
// compares these bytes between a crashed-and-recovered server and an
// uninterrupted one.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// The version travels in a header, never the body: recovery tests
	// byte-compare snapshot bodies between servers whose store versions
	// legitimately differ (one recovered in a single batch, one fed live).
	f := s.fabric
	snaps, g := gather(r.Context(), f, f.allShards(), func(_, _ int, st *store.Store, eng *risk.Engine) (risk.Snapshot, uint64, error) {
		return eng.Snapshot(), st.Snapshot().Version(), nil
	})
	if err := g.failure(false); err != nil {
		s.shardUnavailable(w, err)
		return
	}
	s.stampPartial(w, g)
	s.writeJSON(w, http.StatusOK, risk.SnapshotJSON(risk.MergeSnapshots(snaps)))
}

// contributionJSON is one scored contribution on the wire.
type contributionJSON struct {
	Time        time.Time `json:"time"`
	Node        int       `json:"node"`
	Category    string    `json:"category"`
	Subtype     string    `json:"subtype,omitempty"`
	Scope       string    `json:"scope"`
	AgeSeconds  float64   `json:"age_seconds"`
	Weight      float64   `json:"weight"`
	Conditional float64   `json:"conditional"`
	Excess      float64   `json:"excess"`
}

// scoreJSON is one node score on the wire.
type scoreJSON struct {
	System        int                `json:"system"`
	Node          int                `json:"node"`
	At            time.Time          `json:"at"`
	Risk          float64            `json:"risk"`
	RiskLo        float64            `json:"risk_lo"`
	RiskHi        float64            `json:"risk_hi"`
	Base          float64            `json:"base"`
	Factor        float64            `json:"factor"`
	Window        string             `json:"window"`
	Contributions []contributionJSON `json:"contributions,omitempty"`
}

func (s *Server) scoreJSON(sc risk.Score) scoreJSON {
	out := scoreJSON{
		System: sc.System,
		Node:   sc.Node,
		At:     sc.At,
		Risk:   sc.Risk,
		RiskLo: sc.Lo,
		RiskHi: sc.Hi,
		Base:   sc.Base,
		Factor: finite(sc.Factor),
		Window: s.fabric.window.String(),
	}
	for _, c := range sc.Contributions {
		cj := contributionJSON{
			Time:        c.Event.Time,
			Node:        c.Event.Node,
			Category:    c.Event.Category.String(),
			Scope:       c.Scope.String(),
			AgeSeconds:  c.Age.Seconds(),
			Weight:      c.Weight,
			Conditional: c.Conditional,
			Excess:      c.Excess,
		}
		if sub := c.Event.SubtypeLabel(); sub != cj.Category {
			cj.Subtype = sub
		}
		out.Contributions = append(out.Contributions, cj)
	}
	return out
}

// finite maps NaN/Inf (JSON-unencodable) to 0 and a large sentinel.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// pickFleetSystem resolves an optional system parameter against the fleet
// catalog: 0 means "the fleet's only system" and is an error when there are
// several.
func (s *Server) pickFleetSystem(id int) (trace.SystemInfo, error) {
	f := s.fabric
	if id == 0 {
		if len(f.fleet) == 1 {
			return f.fleet[0], nil
		}
		return trace.SystemInfo{}, fmt.Errorf("dataset covers %d systems; pass ?system=", len(f.fleet))
	}
	sys, ok := f.fleetSystem(id)
	if !ok {
		return trace.SystemInfo{}, fmt.Errorf("unknown system %d", id)
	}
	return sys, nil
}

// shardUnavailable writes the 503 a down or deadline-missing shard earns.
func (s *Server) shardUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", retryAfter)
	s.writeError(w, http.StatusServiceUnavailable, err)
}

func (s *Server) handleRiskNode(w http.ResponseWriter, r *http.Request) {
	node, err := strconv.Atoi(r.PathValue("node"))
	if err != nil || node < 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad node %q", r.PathValue("node")))
		return
	}
	q, err := parseRiskQuery(r.URL.RawQuery)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	f := s.fabric
	w.Header().Set("X-Dataset-Version", strconv.FormatUint(f.maxVersion(), 10))
	sys, err := s.pickFleetSystem(q.System)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	now := s.now()
	if !q.At.IsZero() {
		now = q.At
	}
	owner, _ := f.ownerOf(sys.ID)
	var sc risk.Score
	var version uint64
	err = f.call(r.Context(), owner, func(st *store.Store, eng *risk.Engine, _ *risk.Journal) error {
		version = st.Snapshot().Version()
		var serr error
		sc, serr = eng.Score(sys.ID, node, now)
		return serr
	})
	if errors.Is(err, errShardDown) || errors.Is(err, errShardSlow) {
		s.shardUnavailable(w, err)
		return
	}
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("X-Dataset-Version", strconv.FormatUint(version, 10))
	s.writeJSON(w, http.StatusOK, s.scoreJSON(sc))
}

// riskTopResponse is the /v1/risk/top body.
type riskTopResponse struct {
	At     time.Time   `json:"at"`
	Window string      `json:"window"`
	Scores []scoreJSON `json:"scores"`
}

func (s *Server) handleRiskTop(w http.ResponseWriter, r *http.Request) {
	q, err := parseRiskQuery(r.URL.RawQuery)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	f := s.fabric
	w.Header().Set("X-Dataset-Version", strconv.FormatUint(f.maxVersion(), 10))
	if q.System != 0 {
		if _, err := s.pickFleetSystem(q.System); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	// Clamp k to the node population in scope: asking for more rows than
	// nodes is harmless intent, not an error.
	nodes := 0
	for _, sys := range f.fleet {
		if q.System == 0 || sys.ID == q.System {
			nodes += sys.Nodes
		}
	}
	if q.K > nodes && nodes > 0 {
		q.K = nodes
	}
	now := s.now()
	if !q.At.IsZero() {
		now = q.At
	}
	out := riskTopResponse{At: now, Window: f.window.String(), Scores: []scoreJSON{}}

	if q.System != 0 {
		// Per-system: the owner shard ranks that one system.
		owner, _ := f.ownerOf(q.System)
		var scores []risk.Score
		var version uint64
		err := f.call(r.Context(), owner, func(st *store.Store, eng *risk.Engine, _ *risk.Journal) error {
			version = st.Snapshot().Version()
			scores = eng.TopK(q.K, now, q.System)
			return nil
		})
		if err != nil {
			s.shardUnavailable(w, err)
			return
		}
		w.Header().Set("X-Dataset-Version", strconv.FormatUint(version, 10))
		for _, sc := range scores {
			out.Scores = append(out.Scores, s.scoreJSON(sc))
		}
		s.writeJSON(w, http.StatusOK, out)
		return
	}

	// Fleet-wide: every shard returns its own top k, merged under TopK's
	// order. The merge is exact: ScoreLess is a total order and shards own
	// disjoint systems, so a global winner is beaten by fewer than k rows of
	// its own shard and is in that shard's top k. Survivors answer even
	// when a shard is down — the response says so.
	tops, g := gather(r.Context(), f, f.allShards(), func(_, _ int, st *store.Store, eng *risk.Engine) ([]risk.Score, uint64, error) {
		return eng.TopK(q.K, now), st.Snapshot().Version(), nil
	})
	if err := g.failure(false); err != nil {
		s.shardUnavailable(w, err)
		return
	}
	merged := slices.Concat(tops...)
	sort.Slice(merged, func(i, j int) bool { return risk.ScoreLess(merged[i], merged[j]) })
	s.stampPartial(w, g)
	for _, sc := range merged {
		out.Scores = append(out.Scores, s.scoreJSON(sc))
		if len(out.Scores) >= q.K {
			break
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// proportionJSON is a stats.Proportion with its CI on the wire.
type proportionJSON struct {
	P         float64 `json:"p"`
	Successes int     `json:"successes"`
	Trials    int     `json:"trials"`
	CILo      float64 `json:"ci_lo"`
	CIHi      float64 `json:"ci_hi"`
}

func proportionOf(p stats.Proportion, ci stats.Interval) proportionJSON {
	return proportionJSON{
		P:         finite(p.P()),
		Successes: p.Successes,
		Trials:    p.Trials,
		CILo:      finite(ci.Lo),
		CIHi:      finite(ci.Hi),
	}
}

// condProbJSON is the /v1/condprob response body.
type condProbJSON struct {
	Anchor         string         `json:"anchor"`
	Target         string         `json:"target"`
	Window         string         `json:"window"`
	Scope          string         `json:"scope"`
	Group          int            `json:"group"`
	DatasetVersion uint64         `json:"dataset_version"`
	Conditional    proportionJSON `json:"conditional"`
	Baseline       proportionJSON `json:"baseline"`
	Factor         float64        `json:"factor"`
	FactorLo       float64        `json:"factor_lo"`
	FactorHi       float64        `json:"factor_hi"`
	PValue         float64        `json:"p_value"`
	Significant    bool           `json:"significant_5pct"`
}

// condProbRoute serves /v1/condprob. A shard's part is its partition's raw
// CondResult: integer success/trial counts merge exactly into the union's
// statistics (analysis.MergeCondResults), rendered statistics do not.
var condProbRoute = analysisRoute[condProbQuery, analysis.CondResult, condProbJSON]{
	name: "condprob",
	part: func(ctx context.Context, _ *shard, snap *store.Snapshot, q condProbQuery) (analysis.CondResult, uint64, error) {
		anchor, target, err := q.preds()
		if err != nil {
			return analysis.CondResult{}, 0, err
		}
		ds := snap.Dataset()
		systems := ds.Systems
		switch q.group {
		case 1:
			systems = ds.GroupSystems(trace.Group1)
		case 2:
			systems = ds.GroupSystems(trace.Group2)
		}
		res, err := snap.Analyzer().CondProbCtx(ctx, systems, anchor, target, q.window, q.scope)
		return res, snap.Version(), err
	},
	render: func(q condProbQuery, version uint64, parts []analysis.CondResult) condProbJSON {
		res := analysis.MergeCondResults(q.window, q.scope, parts)
		return condProbJSON{
			Anchor:         q.anchor,
			Target:         q.target,
			Window:         trace.WindowName(q.window),
			Scope:          q.scope.String(),
			Group:          q.group,
			DatasetVersion: version,
			Conditional:    proportionOf(res.Conditional, res.CondCI),
			Baseline:       proportionOf(res.Baseline, res.BaseCI),
			Factor:         finite(res.Factor()),
			FactorLo:       finite(res.FactorCI.Lo),
			FactorHi:       finite(res.FactorCI.Hi),
			PValue:         finite(res.Test.P),
			Significant:    res.Significant(0.05),
		}
	},
}

func (s *Server) handleCondProb(w http.ResponseWriter, r *http.Request) {
	q, err := parseCondProbQuery(r.URL.RawQuery)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	serveQuery(s, w, r, &condProbRoute, q, s.fabric.involvedShards(q.group))
}

// condProbValue answers q as a value through the strict executor — the
// comparative endpoints' guarantee that each side matches the standalone
// /v1/condprob answer rests on sharing this one path.
func (s *Server) condProbValue(ctx context.Context, q condProbQuery) (condProbJSON, error) {
	res := runQuery(ctx, s, &condProbRoute, q, s.fabric.involvedShards(q.group), true)
	return res.body, res.err
}

// eventJSON is one failure event on the wire.
type eventJSON struct {
	System   int        `json:"system"`
	Node     int        `json:"node"`
	Time     *time.Time `json:"time,omitempty"`
	Category string     `json:"category"`
	HW       string     `json:"hw,omitempty"`
	SW       string     `json:"sw,omitempty"`
	Env      string     `json:"env,omitempty"`
}

// Timestamp sanity bounds for ingested events: LANL logs start in the
// mid-1990s, so anything before 1990 is a mangled timestamp, and anything
// more than an hour ahead of the server clock is a client clock gone wrong
// — both would sit in the sliding window (or instantly age out of it) and
// silently skew scores.
var minEventTime = time.Date(1990, 1, 1, 0, 0, 0, 0, time.UTC)

const maxEventSkew = time.Hour

// toFailure converts a wire event, defaulting a missing time to now and
// rejecting timestamps outside plausible bounds.
func (e eventJSON) toFailure(now time.Time) (trace.Failure, error) {
	f := trace.Failure{System: e.System, Node: e.Node, Time: now}
	if e.Time != nil {
		f.Time = *e.Time
		if f.Time.Before(minEventTime) {
			return f, fmt.Errorf("event time %s before %s", f.Time.Format(time.RFC3339), minEventTime.Format(time.RFC3339))
		}
		if f.Time.After(now.Add(maxEventSkew)) {
			return f, fmt.Errorf("event time %s is more than %s in the future", f.Time.Format(time.RFC3339), maxEventSkew)
		}
	}
	var err error
	if f.Category, err = trace.ParseCategory(e.Category); err != nil {
		return f, err
	}
	if e.HW != "" {
		if f.HW, err = trace.ParseHWComponent(e.HW); err != nil {
			return f, err
		}
	}
	if e.SW != "" {
		if f.SW, err = trace.ParseSWClass(e.SW); err != nil {
			return f, err
		}
	}
	if e.Env != "" {
		if f.Env, err = trace.ParseEnvClass(e.Env); err != nil {
			return f, err
		}
	}
	return f, nil
}

// maxEventBody bounds a POST /v1/events body (1 MiB).
const maxEventBody = 1 << 20

// idemKeyHeader carries a client-chosen key that makes POST /v1/events
// retries safe: a request replayed with the same key returns the original
// response without re-ingesting.
const idemKeyHeader = "X-Idempotency-Key"

// eventsResponse is the POST /v1/events response body.
type eventsResponse struct {
	Accepted int              `json:"accepted"`
	Rejected []eventRejection `json:"rejected,omitempty"`
	// DatasetVersion is the store version after this batch was applied —
	// the version whose /v1/condprob answers reflect these events.
	DatasetVersion uint64 `json:"dataset_version"`
}

type eventRejection struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// replayIdem serves the recorded response for a retried idempotency key.
func (s *Server) replayIdem(w http.ResponseWriter, res idemResult) {
	s.metrics.idemReplays.Add(1)
	w.Header().Set("X-Idempotent-Replay", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.code)
	w.Write(res.body)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	idemKey := r.Header.Get(idemKeyHeader)
	var pending *idemPending
	if idemKey != "" {
		for pending == nil {
			res, p, state := s.idem.begin(idemKey)
			switch state {
			case idemHit:
				s.replayIdem(w, res)
				return
			case idemOwned:
				pending = p
			case idemWait:
				// A concurrent request holds this key. Wait for its outcome
				// instead of ingesting a duplicate, then loop: replay what
				// it recorded, or take over the key if it abandoned.
				select {
				case <-p.done:
				case <-r.Context().Done():
					s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("request with idempotency key %q still in flight", idemKey))
					return
				}
			}
		}
		// Paths that record no outcome (malformed bodies, panics) must not
		// wedge the key: release the reservation so a retry re-contends.
		defer func() {
			if pending != nil {
				s.idem.abandon(idemKey, pending)
			}
		}()
	}
	// respond writes the response and records it under the idempotency key,
	// so a retry replays this exact outcome instead of re-ingesting.
	respond := func(code int, v any) {
		body, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			s.logf("server: encoding response: %v", err)
			s.writeJSON(w, code, v)
			return
		}
		body = append(body, '\n')
		if pending != nil {
			s.idem.complete(idemKey, pending, code, body)
			pending = nil
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write(body)
	}
	var req struct {
		Events []eventJSON `json:"events"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEventBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Events) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("no events in request"))
		return
	}
	// Per-tenant event quota: once this dataset has accepted its budget,
	// further ingestion is shed before any work happens. Nothing was
	// ingested, so the idempotency reservation is abandoned (deferred
	// above) and a retry re-contends after the operator raises the quota.
	if qmax := s.quota.MaxEvents; qmax > 0 && int64(s.metrics.eventsIn.Load()) >= qmax {
		w.Header().Set("Retry-After", retryAfter)
		s.writeError(w, http.StatusTooManyRequests, fmt.Errorf("dataset %s event quota (%d events) exhausted", s.name, qmax))
		return
	}
	// Each event routes to the shard owning its system. With a journal
	// configured on that shard, ingestion is write-ahead: the event hits
	// the log (fsync per policy) before the engine sees it, so an acked
	// event survives a crash. An event for a down shard is rejected
	// per-event — the rest of the batch still lands.
	fab := s.fabric
	// Read-only gate: while any shard's WAL disk is full, writes are shed
	// here (503 + Retry-After + X-Read-Only) after one rate-limited probe
	// for recovered space. Nothing was ingested, so the idempotency
	// reservation is abandoned (deferred above) and a retry re-contends.
	if !fab.ensureWritable(s.now()) {
		s.metrics.readOnlyRejects.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		w.Header().Set("X-Read-Only", "true")
		s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("event log disk full: serving reads only"))
		return
	}
	// Accepted events batch-append to each shard's dataset store unless the
	// dataset is frozen or that shard's journal already applies its
	// observes to the same store (one writer per canonical log, never two).
	pendingStore := make(map[int][]trace.Failure)
	flushStore := func() {
		// The store validates exactly what the engine validated, so a
		// rejection here is a bug, not bad input; surface it in the logs
		// rather than un-acking events the engine (and WAL) accepted.
		for idx, evs := range pendingStore {
			st, _, _ := fab.shards[idx].view()
			if _, err := st.Append(evs); err != nil {
				s.logf("server: shard %d dataset store append: %v", idx, err)
			}
			delete(pendingStore, idx)
		}
	}
	now := s.now()
	accepted := 0
	var rejected []eventRejection
	for i, e := range req.Events {
		f, err := e.toFailure(now)
		owner := -1
		if err == nil {
			var ok bool
			owner, ok = fab.ownerOf(f.System)
			if !ok {
				err = fmt.Errorf("risk: unknown system %d", f.System)
			}
		}
		if err == nil {
			err = fab.call(r.Context(), owner, func(st *store.Store, eng *risk.Engine, j *risk.Journal) error {
				if j != nil {
					return j.Observe(f)
				}
				return eng.Observe(f)
			})
		}
		if err != nil {
			if errors.Is(err, risk.ErrAppend) {
				// The WAL is broken: nothing past this point can be made
				// durable, and claiming acceptance would lie to clients
				// that rely on acked==durable. Fail the whole request —
				// and record the failure under the idempotency key, because
				// events earlier in the batch are already durable and
				// observed: a retry must replay this outcome, not re-ingest
				// that prefix. The durable prefix still reaches the store,
				// keeping dataset and engine telling one story.
				s.logf("server: %v", err)
				fab.walAppendErrs.Add(1)
				flushStore()
				w.Header().Set("X-Dataset-Version", strconv.FormatUint(fab.maxVersion(), 10))
				if iofault.IsDiskFull(err) {
					// Disk full is the one append fault the server survives
					// degraded: latch read-only, keep serving reads, and
					// tell the client to retry once space returns.
					fab.markDiskFull(owner)
					w.Header().Set("Retry-After", retryAfter)
					w.Header().Set("X-Read-Only", "true")
					if accepted > 0 {
						// A durable prefix exists — record the 503 under the
						// idempotency key so a retry replays it instead of
						// double-ingesting the prefix.
						respond(http.StatusServiceUnavailable, apiError{Error: "event log disk full: serving reads only"})
					} else {
						// Nothing durable: abandon the reservation so the
						// retry re-contends after space recovers.
						s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("event log disk full: serving reads only"))
					}
					return
				}
				respond(http.StatusInternalServerError, apiError{Error: "event log unavailable"})
				return
			}
			rejected = append(rejected, eventRejection{Index: i, Error: err.Error()})
			s.metrics.eventsBad.Add(1)
			continue
		}
		accepted++
		s.metrics.eventsIn.Add(1)
		st, _, j := fab.shards[owner].view()
		if !s.frozen && (j == nil || j.Store() != st) {
			pendingStore[owner] = append(pendingStore[owner], f)
		}
	}
	flushStore()
	version := fab.maxVersion()
	w.Header().Set("X-Dataset-Version", strconv.FormatUint(version, 10))
	code := http.StatusOK
	if accepted == 0 {
		code = http.StatusBadRequest
	}
	respond(code, eventsResponse{Accepted: accepted, Rejected: rejected, DatasetVersion: version})
}

// Serve listens on addr and serves until ctx is cancelled, then drains
// in-flight requests and returns nil. It is the body of cmd/hpcserve.
func Serve(ctx context.Context, addr string, cfg Config) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ServeListener(ctx, ln, cfg)
}

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests before giving up.
const shutdownGrace = 5 * time.Second

// ServeListener serves on an existing listener (which it takes ownership
// of) until ctx is cancelled. Tests use it with a 127.0.0.1:0 listener.
func ServeListener(ctx context.Context, ln net.Listener, cfg Config) error {
	s, err := New(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	s.setBase(ctx)
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}

	// Periodic maintenance: decay keeps engine memory bounded while the
	// feed is quiet, and each shard's journal gets its WAL synced and its
	// snapshot policy consulted. The derived context stops the goroutine on
	// any exit path, including an immediate Serve error.
	dctx, dcancel := context.WithCancel(ctx)
	decayDone := make(chan struct{})
	go func() {
		defer close(decayDone)
		t := time.NewTicker(30 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-dctx.Done():
				return
			case now := <-t.C:
				s.fabric.maintain(now)
				s.eachTenant(func(_ string, ts *Server) { ts.fabric.maintain(now) })
			}
		}
	}()
	// Supervision: heartbeats, standby replication catchup, and automatic
	// failover. Single-shard fabrics without a standby skip the loop — the
	// legacy server had no supervisor and keeps exactly that behavior.
	supDone := make(chan struct{})
	if s.fabric.needsSupervision() {
		go func() {
			defer close(supDone)
			s.fabric.supervise(dctx)
		}()
	} else {
		close(supDone)
	}
	// Named tenants share one supervision ticker: each tick drives every
	// tenant fabric that wants supervision (multi-shard or standby-backed).
	// Tenants created mid-serve are picked up on the next tick.
	tenantSupDone := make(chan struct{})
	go func() {
		defer close(tenantSupDone)
		t := time.NewTicker(heartbeatIntervalOr(cfg.HeartbeatInterval))
		defer t.Stop()
		for {
			select {
			case <-dctx.Done():
				return
			case <-t.C:
				s.eachTenant(func(_ string, ts *Server) {
					if ts.fabric.needsSupervision() {
						ts.fabric.tick(dctx)
					}
				})
			}
		}
	}()
	// Shutdown ordering: stop accepting, join in-flight handlers, then tear
	// down the maintenance goroutines and flush every shard's journal.
	// Handlers may touch the journals, so they must outlive them.
	defer func() {
		done := make(chan struct{})
		go func() { s.inflight.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(shutdownGrace):
			s.logf("hpcserve: gave up waiting for in-flight requests")
		}
		dcancel()
		<-decayDone
		<-supDone
		<-tenantSupDone
		s.fabric.syncAll()
		// Closing the registry syncs and detaches every named tenant's
		// journals (Server.Close), making their WAL trees reopenable.
		if s.reg != nil {
			s.reg.CloseAll()
		}
	}()
	if cfg.OnStart != nil {
		go cfg.OnStart(dctx, s)
	}

	s.logf("hpcserve: listening on http://%s (window %s, %d systems, dataset v%d)",
		ln.Addr(), s.fabric.window, len(s.fabric.fleet), s.fabric.maxVersion())
	if s.fabric.n() > 1 {
		s.logf("hpcserve: serving %d shards (standby=%v)", s.fabric.n(), cfg.Standby)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.logf("hpcserve: shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err = hs.Shutdown(shctx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}
