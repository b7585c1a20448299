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
// Reads share one path. Every route, and its /v1/d/{dataset}/ mirror, is
// registered from one table (routes); every query string goes through one
// parameter walker (queryParams); every uncached shard read goes through one
// scatter (gather), which calls a one-shard read under the request context
// and fans a multi-shard one out with per-shard deadlines. The cached
// analysis routes (condprob, correlations, anomalies) add one query
// executor (exec.go) that caches on the canonicalized query, deduplicates
// identical queries singleflight-style and gates compute on each shard's
// circuit breaker; both comparative endpoints run through compareSides,
// over its strict mode. Every request runs under a timeout and per-route
// admission control (overload is shed with 429 + Retry-After). With
// Config.ShardWAL.Dir set, POST /v1/events is write-ahead logged so acked
// events survive a crash, and X-Idempotency-Key makes retries safe. Writes
// share one path: a POST makes one call and one store append per owning
// shard, with or without a journal (risk.Apply). Serve shuts down
// gracefully when its context is cancelled, joining in-flight handlers
// before tearing down shared state.
package server

import (
	"bytes"
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
	"strings"
	"sync"
	"sync/atomic"
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
	// Dataset is the in-memory dataset the server answers from. The server
	// keeps only its served tables (trace.Dataset.Served: systems, failures
	// and layouts), so the job, temperature, maintenance and neutron records
	// it was given are neither held nor copied. It partitions those into
	// per-shard versioned stores; a one-shard server takes them over without
	// a copy, so callers must not reuse the dataset for a second server.
	// Required unless Store is set.
	Dataset *trace.Dataset
	// FrozenDataset stops POST /v1/events from advancing the server's
	// stores: accepted events still feed the risk engines (and WALs), but
	// analysis answers stay pinned to the boot dataset.
	FrozenDataset bool
	// Window is the risk engine's sliding window (and the lift table's
	// look-ahead). Defaults to one day.
	Window time.Duration
	// Store, Engine and Journal adopt caller-built components as the one
	// shard of a Shards <= 1 server, in place of the store, engine and
	// journal it would build from Dataset, Window and ShardWAL; the server
	// then owns them and Close closes the journal. Unless FrozenDataset is
	// set, the journal must apply its events to the store.
	//
	// Deprecated: set Dataset and ShardWAL instead. Only the benchmark's
	// in-process server (bench/layers.go) still uses these.
	Store   *store.Store
	Engine  *risk.Engine
	Journal *risk.Journal
	// CorrelationWindows are the time windows the per-shard correlation-rule
	// miners maintain incrementally and /v1/correlations can answer for.
	// Empty means correlate.DefaultWindows (day and week).
	CorrelationWindows []time.Duration
	// RequestTimeout bounds each request's computation; defaults to 10s.
	RequestTimeout time.Duration
	// Limits overrides per-route admission limits; routes not listed keep
	// their defaults (see defaultLimits). A zero-Concurrency entry makes
	// that route unlimited.
	Limits map[string]RouteLimit
	// BreakerThreshold is how many consecutive condprob compute failures
	// open the circuit; defaults to 5.
	BreakerThreshold int
	// Middleware, when set, wraps the routed handler — the chaos injector
	// (internal/faultinject) plugs in here.
	Middleware func(http.Handler) http.Handler
	// Shards splits the fleet into that many supervised fault domains by
	// consistent hashing on system ID: per-shard stores, engines, WALs and
	// breakers, scatter-gather for cross-system queries, and partial results
	// when a shard is down. Counts above the system count are clamped. Zero
	// is one shard whose WAL and snapshot sit directly under ShardWAL.Dir
	// (the pre-sharding layout); N >= 1 keeps shard i's at shard-NNN/.
	Shards int
	// ShardWAL configures durability for every layout: Dir is the WAL root
	// (see Shards for where each shard's log lives); the remaining options
	// configure each shard's log. An empty Dir disables durability (and
	// standbys).
	ShardWAL wal.Options
	// Standby, with ShardWAL.Dir set, gives every shard a warm standby that
	// tails the leader's WAL and is promoted automatically when the shard
	// dies.
	Standby bool
	// SnapshotPolicy spaces periodic per-shard engine snapshots (see
	// risk.JournalConfig.SnapshotPolicy).
	SnapshotPolicy checkpoint.Policy
	// ShardDeadline bounds one shard's slice of a scatter-gather query;
	// defaults to DefaultShardDeadline.
	ShardDeadline time.Duration
	// HeartbeatDeadline expires a Ready shard that has not heartbeaten;
	// defaults to store.DefaultHeartbeatDeadline.
	HeartbeatDeadline time.Duration
	// TenantRoot, when set, is the directory the dataset registry keeps
	// named tenants under: <TenantRoot>/<name>/tenant.json next to that
	// tenant's WAL tree at <TenantRoot>/<name>/shard-NNN/. Tenants found
	// there are reopened at boot. Empty keeps named tenants memory-only
	// (they still work, but do not survive a restart).
	TenantRoot string
	// TenantWAL is the per-shard durability template for named tenants:
	// every option configures the tenant's logs as ShardWAL's do, with Dir
	// rewritten to the tenant's own tree. Ignored when TenantRoot is empty.
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
	cache   *flightCache[any]
	metrics *metrics
	idem    *flightCache[idemResult]
	limits  map[string]*limiter
	wrap    func(http.Handler) http.Handler
	timeout time.Duration
	now     func() time.Time
	logf    func(format string, args ...any)
	// detached is the context singleflight computations run under instead of
	// their leader's request, so a leader hanging up does not fail its
	// followers; Close cancels it.
	detached     context.Context
	stopDetached context.CancelFunc

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
	// routesOnce/routeTab lazily build the per-dataset route table shared by
	// the root mux and the /v1/d/{dataset} dispatcher.
	routesOnce sync.Once
	routeTab   map[string]http.Handler
}

// New builds the root server over the served tables of the config's
// dataset and wires up the named-dataset registry: tenants persisted under
// cfg.TenantRoot are reopened, and new ones can be created through the
// dataset API. The root server itself is the "default" tenant.
func New(cfg Config) (*Server, error) {
	if cfg.Dataset != nil {
		cfg.Dataset = cfg.Dataset.Served()
	}
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.tmpl = cfg
	s.tmpl.Dataset = nil // tenants generate their own; the shards hold the boot tables
	s.adminToken = cfg.AdminToken
	reg, err := registry.New(registry.Config{
		Root:  cfg.TenantRoot,
		Build: s.buildTenantResource,
		Logf:  s.logf,
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	s.reg = reg
	if err := reg.OpenAll(); err != nil {
		reg.CloseAll()
		s.Close()
		return nil, fmt.Errorf("server: reopening datasets: %w", err)
	}
	return s, nil
}

// newServer builds one dataset's serving stack — the shard fabric (stores,
// risk engines, journals; see newFabric), caches, admission — without any
// registry wiring. It is the constructor both for the root server (via New)
// and for registry-built tenant children.
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
	fab, err := newFabric(cfg, w, now, logf)
	if err != nil {
		return nil, err
	}
	timeout := cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	limits := defaultLimits()
	for route, lim := range cfg.Limits {
		limits[route] = lim
	}
	limiters := make(map[string]*limiter, len(limits))
	for route, lim := range limits {
		limiters[route] = newLimiter(lim)
	}
	detached, stopDetached := context.WithCancel(context.Background())
	return &Server{
		fabric:       fab,
		frozen:       cfg.FrozenDataset,
		cache:        newResultCache(resultCacheSize),
		metrics:      newMetrics(),
		idem:         newFlightCache[idemResult](1024),
		limits:       limiters,
		wrap:         cfg.Middleware,
		timeout:      timeout,
		now:          now,
		logf:         logf,
		detached:     detached,
		stopDetached: stopDetached,
		name:         defaultTenantName,
	}, nil
}

// Handler returns the server's routed HTTP handler, wrapped in the
// configured middleware (chaos injection in tests) when one is set. The
// unprefixed routes serve the default tenant; the same routes under
// /v1/d/{dataset}/ resolve a named tenant from the registry first.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for pattern, h := range s.routes() {
		// The mirror of "GET /v1/risk/top" is "GET /v1/d/{dataset}/risk/top";
		// the dispatcher resolves the tenant, then reuses that tenant's own
		// instrumented handler.
		method, path, _ := strings.Cut(pattern, " ")
		mux.Handle(pattern, h)
		mux.Handle(method+" /v1/d/{dataset}"+strings.TrimPrefix(path, "/v1"), s.tenantRoute(pattern))
	}
	mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
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
// timeout and metrics. Requests beyond a route's concurrency and queue
// bounds are shed with 429 and a Retry-After hint before any work happens.
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
		defer release()
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

// bodyBufs recycles response encoding buffers. A buffer grown past
// maxPooledBody (a large snapshot or risk/top body) is dropped instead of
// pooled, so one big response does not pin its capacity.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// writeJSON is the one response encoder: it writes v as one compact JSON
// line, the bytes of json.Marshal plus a newline, and reports whether v
// encoded. It encodes before the status line, so a value that fails to
// encode answers 500 with the error envelope (and reports false) instead
// of its intended code with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) bool {
	return s.writeJSONKeep(w, code, v, nil)
}

// writeJSONKeep is writeJSON that, when v encodes and keep is non-nil,
// also stores a copy of the body in *keep: the body itself is encoded into
// a pooled buffer that is reused once the response is written.
func (s *Server) writeJSONKeep(w http.ResponseWriter, code int, v any, keep *[]byte) bool {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.logf("server: encoding response: %v", err)
		s.writeJSON(w, http.StatusInternalServerError, apiError{Error: "encoding response: " + err.Error()})
		return false
	}
	sendJSON(w, code, buf.Bytes())
	if keep != nil {
		*keep = bytes.Clone(buf.Bytes())
	}
	return true
}

// sendJSON writes an encoded JSON body under code.
func sendJSON(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, apiError{Error: err.Error()})
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

// scoreJSONOf renders one score under the window label its response
// shares.
func scoreJSONOf(sc risk.Score, window string) scoreJSON {
	out := scoreJSON{
		System: sc.System,
		Node:   sc.Node,
		At:     sc.At,
		Risk:   sc.Risk,
		RiskLo: sc.Lo,
		RiskHi: sc.Hi,
		Base:   sc.Base,
		Factor: finite(sc.Factor),
		Window: window,
	}
	if len(sc.Contributions) > 0 {
		out.Contributions = make([]contributionJSON, 0, len(sc.Contributions))
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
	now := q.at(s.now())
	owner, _ := f.ownerOf(sys.ID)
	scores, g := gather(r.Context(), f, []int{owner}, func(_, _ int, st *store.Store, eng *risk.Engine) (risk.Score, uint64, error) {
		sc, err := eng.Score(sys.ID, node, now)
		return sc, st.Snapshot().Version(), err
	})
	switch err := g.errs[0]; {
	case errors.Is(err, errShardDown) || errors.Is(err, errShardSlow):
		s.shardUnavailable(w, err)
		return
	case err != nil:
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.stampPartial(w, g)
	s.writeJSON(w, http.StatusOK, scoreJSONOf(scores[0], f.window.String()))
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
	now := q.at(s.now())
	// Every involved shard returns its own top k (TopK clamps a k above the
	// nodes in scope), merged under TopK's order. The merge is exact:
	// ScoreLess is a total order and shards own disjoint systems, so a global
	// winner is beaten by fewer than k rows of its own shard and is in that
	// shard's top k. Survivors answer even when a shard is down — the
	// response says so.
	tops, g := gather(r.Context(), f, f.systemShards(q.System), func(_, _ int, st *store.Store, eng *risk.Engine) ([]risk.Score, uint64, error) {
		return eng.TopK(q.K, now, scopeSystems(q.System)...), st.Snapshot().Version(), nil
	})
	if err := g.failure(false); err != nil {
		s.shardUnavailable(w, err)
		return
	}
	merged := tops[0]
	if len(tops) > 1 {
		merged = slices.Concat(tops...)
		sort.Slice(merged, func(i, j int) bool { return risk.ScoreLess(merged[i], merged[j]) })
	}
	s.stampPartial(w, g)
	win := f.window.String()
	top := merged[:min(q.K, len(merged))]
	out := riskTopResponse{At: now, Window: win, Scores: make([]scoreJSON, len(top))}
	for i, sc := range top {
		out.Scores[i] = scoreJSONOf(sc, win)
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

// idemResult is one response recorded under an idempotency key.
type idemResult struct {
	code int
	body []byte
}

// errUnrecorded is an ingest outcome not recorded under the request's
// idempotency key: nothing was ingested (a malformed body, a shed write), so
// a retry with the same key ingests afresh.
var errUnrecorded = errors.New("ingest outcome not recorded")

// handleEvents serves POST /v1/events. Under an X-Idempotency-Key, the
// first request to present the key ingests and every later one replays its
// recorded response instead of ingesting the events again; a concurrent
// duplicate waits for the owner's outcome rather than racing it. Recorded
// responses live in a bounded LRU: replay protection is exact within one
// process lifetime and degrades to at-least-once across restarts or after
// eviction — the WAL makes duplicate observes safe, just visible in the
// observed counter.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	key := r.Header.Get(idemKeyHeader)
	if key == "" {
		s.ingest(w, r)
		return
	}
	for {
		res, oc, err := s.idem.Do(r.Context(), key, func() (idemResult, error) { return s.ingest(w, r) })
		switch {
		case oc == outcomeMiss:
			return // ingest wrote this request's own response
		case err == nil:
			s.metrics.idemReplays.Add(1)
			w.Header().Set("X-Idempotent-Replay", "1")
			sendJSON(w, res.code, res.body)
			return
		case r.Context().Err() != nil:
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("request with idempotency key %q still in flight", key))
			return
		}
		// The owner recorded nothing (or panicked): claim the key again.
	}
}

// ingest applies one POST /v1/events body and writes its response. It
// returns the response to record under the request's idempotency key, or
// errUnrecorded when nothing was ingested.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request) (idemResult, error) {
	unrecorded := func(code int, err error) (idemResult, error) {
		s.writeError(w, code, err)
		return idemResult{}, errUnrecorded
	}
	record := func(code int, v any) (idemResult, error) {
		var body []byte
		if !s.writeJSONKeep(w, code, v, &body) {
			return idemResult{}, errUnrecorded
		}
		return idemResult{code, body}, nil
	}
	var req struct {
		Events []eventJSON `json:"events"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEventBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return unrecorded(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	if len(req.Events) == 0 {
		return unrecorded(http.StatusBadRequest, fmt.Errorf("no events in request"))
	}
	// Per-tenant event quota: once this dataset has accepted its budget,
	// further ingestion is shed before any work happens, unrecorded, so a
	// retry ingests once the operator raises the quota.
	if qmax := s.quota.MaxEvents; qmax > 0 && int64(s.metrics.eventsIn.Load()) >= qmax {
		w.Header().Set("Retry-After", retryAfter)
		return unrecorded(http.StatusTooManyRequests, fmt.Errorf("dataset %s event quota (%d events) exhausted", s.name, qmax))
	}
	// Read-only gate: while any shard's WAL disk is full, writes are shed
	// here (503 + Retry-After + X-Read-Only), unrecorded, so a retry
	// ingests once an upkeep round's probe finds space again.
	fab := s.fabric
	if fab.readOnly() {
		s.metrics.readOnlyRejects.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		w.Header().Set("X-Read-Only", "true")
		return unrecorded(http.StatusServiceUnavailable, errReadOnly)
	}
	// Each valid event routes to the shard owning its system, and one call
	// per shard applies its events in request order, shards in the order
	// the request first touches them. A journal logs them first (fsync per
	// policy), so an acked event survives a crash; then the engine observes
	// and the store takes what it accepted in one append (risk.Apply) unless
	// the dataset is frozen. A down shard's events are rejected per-event.
	now := s.now()
	errs := make([]error, len(req.Events))
	idxs, groups := make(map[int][]int), make(map[int][]trace.Failure)
	var owners []int
	for i, e := range req.Events {
		f, err := e.toFailure(now)
		if errs[i] = err; err != nil {
			continue
		}
		owner, ok := fab.ownerOf(f.System)
		if !ok {
			errs[i] = fmt.Errorf("risk: unknown system %d", f.System)
			continue
		}
		if idxs[owner] == nil {
			owners = append(owners, owner)
		}
		idxs[owner] = append(idxs[owner], i)
		groups[owner] = append(groups[owner], f)
	}
	// failed is the WAL failure that ends the request: later shards are
	// not called, and their events are not ingested.
	var failed error
	for _, owner := range owners {
		idx, group := idxs[owner], groups[owner]
		var out []error
		err := failed
		if err == nil {
			// out is set only once the group is applied: a call that
			// panicked midway reports its error for the whole group.
			err = fab.call(r.Context(), owner, true, func(st *store.Store, eng *risk.Engine, j *risk.Journal) (err error) {
				if s.frozen {
					st = nil
				}
				res := make([]error, len(group))
				if j != nil {
					res, err = j.ObserveBatch(group)
				} else if serr := risk.Apply(eng, st, group, res); serr != nil {
					// The store validates exactly what the engine validated,
					// so a rejection here is a bug, not bad input; log it
					// rather than un-ack events the engine accepted.
					s.logf("server: shard %d dataset store append: %v", owner, serr)
				}
				out = res
				return err
			})
		}
		for k, i := range idx {
			if errs[i] = err; out != nil {
				errs[i] = out[k]
			}
		}
		if failed == nil && errors.Is(err, risk.ErrAppend) {
			failed = err
			fab.walFault(owner, "ingest", err)
		}
	}
	accepted := 0
	var rejected []eventRejection
	for i, err := range errs {
		switch {
		case err == nil:
			accepted++
		case !errors.Is(err, risk.ErrAppend):
			rejected = append(rejected, eventRejection{Index: i, Error: err.Error()})
		}
	}
	s.metrics.eventsIn.Add(uint64(accepted))
	s.metrics.eventsBad.Add(uint64(len(rejected)))
	version := fab.maxVersion()
	w.Header().Set("X-Dataset-Version", strconv.FormatUint(version, 10))
	// A WAL failure fails the whole request: claiming acceptance would lie
	// to clients that rely on acked==durable. What was applied before it
	// (earlier shards' groups, the failing shard's prefix) is durable,
	// observed and stored, so the failure is recorded under the idempotency
	// key: a retry replays it instead of re-ingesting that prefix.
	switch {
	case failed == nil:
		code := http.StatusOK
		if accepted == 0 {
			code = http.StatusBadRequest
		}
		return record(code, eventsResponse{Accepted: accepted, Rejected: rejected, DatasetVersion: version})
	case iofault.IsDiskFull(failed):
		// Disk full is the one append fault the server survives degraded:
		// the shard is latched read-only, reads keep serving, and the client
		// is told to retry once space returns. With nothing durable the
		// outcome is unrecorded, so that retry ingests.
		w.Header().Set("Retry-After", retryAfter)
		w.Header().Set("X-Read-Only", "true")
		if accepted == 0 {
			return unrecorded(http.StatusServiceUnavailable, errReadOnly)
		}
		return record(http.StatusServiceUnavailable, apiError{Error: errReadOnly.Error()})
	}
	return record(http.StatusInternalServerError, apiError{Error: "event log unavailable"})
}

// errReadOnly answers writes while a shard's WAL disk is full.
var errReadOnly = errors.New("event log disk full: serving reads only")

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

// unreadConns is ServeListener's listener: once shutdown begins, it closes
// every connection that has not delivered a byte. http.Server.Shutdown
// counts one as busy until it is 5 s old (net/http issue 22682), so a
// dialed but unused connection (a transport's dial race, a load balancer's
// probe) would hold shutdown for its whole grace. A connection that has
// read request bytes is left for Shutdown to drain.
type unreadConns struct {
	net.Listener
	mu      sync.Mutex
	closing bool
	fresh   map[*unreadConn]bool // connections in http.StateNew
}

func (l *unreadConns) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &unreadConn{Conn: c}, nil
}

// track is the server's ConnState hook; a new connection that turns up
// after shutdown began is closed at once.
func (l *unreadConns) track(c net.Conn, state http.ConnState) {
	uc := c.(*unreadConn)
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case state != http.StateNew:
		delete(l.fresh, uc)
	case l.closing:
		uc.closeUnread()
	default:
		l.fresh[uc] = true
	}
}

// closeAll runs when Shutdown begins, after the listener has closed.
func (l *unreadConns) closeAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closing = true
	for uc := range l.fresh {
		uc.closeUnread()
	}
}

// unreadConn's first read and a shutdown close race on one CAS: either the
// connection carries a request and stays open, or it is closed before the
// server has seen any of one.
type unreadConn struct {
	net.Conn
	state atomic.Int32 // 0 unread, 1 read, 2 closed unread
}

func (c *unreadConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.state.CompareAndSwap(0, 1) && c.state.Load() == 2 {
		return 0, net.ErrClosed // closed by shutdown as these bytes arrived
	}
	return n, err
}

// CloseWrite keeps net/http's half-close before a final close, so a
// response is not reset before the client has read it.
func (c *unreadConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

func (c *unreadConn) closeUnread() {
	if c.state.CompareAndSwap(0, 2) {
		c.Conn.Close()
	}
}

// upkeepPeriod spaces ServeListener's upkeep rounds: DefaultHeartbeatInterval,
// lowered to the flush spacing of an interval-policy WAL template when that
// is shorter, so a dirty log is synced by the first round at least one
// interval after its last sync.
func upkeepPeriod(cfg Config) time.Duration {
	d := DefaultHeartbeatInterval
	for _, o := range []wal.Options{cfg.ShardWAL, cfg.TenantWAL} {
		if o.Policy == wal.SyncInterval {
			d = min(d, o.SyncEvery())
		}
	}
	return d
}

// ServeListener serves on an existing listener (which it takes ownership
// of) until ctx is cancelled. Tests use it with a 127.0.0.1:0 listener.
func ServeListener(ctx context.Context, ln net.Listener, cfg Config) error {
	s, err := New(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	cfg.Dataset = nil // New kept the served tables; let the caller's other tables go
	// life is the serve lifetime: requests, the upkeep loop and OnStart run
	// under it, and it ends only after Shutdown has drained every handler,
	// so a request caught by shutdown is served under a live context instead
	// of failing with a cancelled one.
	life, end := context.WithCancel(context.WithoutCancel(ctx))
	uln := &unreadConns{Listener: ln, fresh: map[*unreadConn]bool{}}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return life },
		ConnState:         uln.track,
	}
	hs.RegisterOnShutdown(uln.closeAll)

	// The upkeep loop: one ticker runs a full round (SuperviseTick) over the
	// root and every named tenant, so tenants created mid-serve join on the
	// next round.
	upkept := make(chan struct{})
	go func() {
		defer close(upkept)
		t := time.NewTicker(upkeepPeriod(cfg))
		defer t.Stop()
		for {
			select {
			case <-life.Done():
				return
			case <-t.C:
				s.SuperviseTick(life)
			}
		}
	}()
	// Shutdown ordering: stop accepting and drain in-flight handlers
	// (hs.Shutdown, below), then end the lifetime, stopping the upkeep loop,
	// and close every shard's journal. Handlers may touch the journals, so
	// they must outlive them. This also runs on an immediate Serve error.
	defer func() {
		end()
		<-upkept
		// Close syncs and closes the root's journals; closing the registry
		// does the same for every named tenant, making every WAL tree
		// reopenable.
		s.Close()
		s.reg.CloseAll()
	}()
	if cfg.OnStart != nil {
		go cfg.OnStart(life, s)
	}

	s.logf("hpcserve: listening on http://%s (window %s, %d systems, dataset v%d)",
		ln.Addr(), s.fabric.window, len(s.fabric.fleet), s.fabric.maxVersion())
	if s.fabric.n() > 1 {
		s.logf("hpcserve: serving %d shards (standby=%v)", s.fabric.n(), cfg.Standby)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(uln) }()

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
