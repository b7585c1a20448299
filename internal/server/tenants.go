// Multi-tenant dataset serving: the root server owns a registry of named
// datasets ("tenants"), each an isolated child *Server — its own store,
// risk engine, correlation miner, shard fabric and WAL tree under
// <tenant-root>/<name>/shard-NNN/ — resolved per request from the
// /v1/d/{dataset}/... path. The reserved name "default" aliases the root
// server itself, so the single-tenant API is a strict subset of the
// multi-tenant one. Named tenants authenticate with a per-dataset token
// (X-Dataset-Token) or the operator's admin token (X-Admin-Token), and an
// admin API (POST/GET/DELETE /v1/datasets) drives the registry lifecycle.
package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/hpcfail/hpcfail/internal/registry"
	"github.com/hpcfail/hpcfail/internal/simulate"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// defaultTenantName is the reserved dataset name that resolves to the root
// server: /v1/d/default/... must answer byte-identically to the unprefixed
// routes.
const defaultTenantName = "default"

// datasetTokenHeader carries a tenant's auth token; adminTokenHeader the
// operator token that bypasses per-tenant auth and gates the admin API.
const (
	datasetTokenHeader = "X-Dataset-Token"
	adminTokenHeader   = "X-Admin-Token"
)

// tenantSpec is the durable generation recipe inside a tenant manifest:
// everything needed to rebuild the dataset deterministically at boot, so a
// crashed tenant recovers as generate(seed, scale) + WAL replay.
type tenantSpec struct {
	Seed    int64   `json:"seed,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Window  string  `json:"window,omitempty"`
	Shards  int     `json:"shards,omitempty"`
	Standby bool    `json:"standby,omitempty"`
}

// routes returns the per-dataset instrumented route table, keyed by mux
// pattern ("GET /v1/risk/top"). Handler registers every entry twice — as
// the unprefixed route and as its /v1/d/{dataset}/ mirror — and the mirror's
// dispatcher serves the resolved tenant's own entry, so a named tenant's
// handler chain (admission, timeout, metrics, idempotency) is exactly the
// default tenant's.
func (s *Server) routes() map[string]http.Handler {
	s.routesOnce.Do(func() {
		s.routeTab = make(map[string]http.Handler)
		for _, rt := range []struct {
			method, path string
			h            http.HandlerFunc
		}{
			{"GET", "/healthz", s.handleHealthz},
			{"GET", "/readyz", s.handleReadyz},
			{"GET", "/v1/risk/top", s.handleRiskTop},
			{"GET", "/v1/risk/{node}", s.handleRiskNode},
			{"GET", "/v1/condprob", s.handleCondProb},
			{"GET", "/v1/correlations", s.handleCorrelations},
			{"GET", "/v1/anomalies", s.handleAnomalies},
			{"GET", "/v1/snapshot", s.handleSnapshot},
			{"GET", "/v1/rates", s.handleRates},
			{"POST", "/v1/events", s.handleEvents},
		} {
			s.routeTab[rt.method+" "+rt.path] = s.instrument(rt.path, rt.h)
		}
	})
	return s.routeTab
}

// adminOK reports whether the request carries the operator admin token.
// With no admin token configured there is no bypass (per-tenant tokens
// still apply).
func (s *Server) adminOK(r *http.Request) bool {
	if s.adminToken == "" {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(r.Header.Get(adminTokenHeader)), []byte(s.adminToken)) == 1
}

// adminGate enforces the admin token on the dataset-management API when
// one is configured; an unconfigured token leaves the API open (tests,
// single-operator deployments).
func (s *Server) adminGate(w http.ResponseWriter, r *http.Request) bool {
	if s.adminToken != "" && !s.adminOK(r) {
		s.writeError(w, http.StatusUnauthorized, fmt.Errorf("admin token required"))
		return false
	}
	return true
}

// acquireTenant resolves a canonical dataset name to its server, pinned
// against concurrent drain/close for the caller's lifetime (release the
// returned func when done). "default" resolves to the root server without
// auth — the unprefixed routes never authenticated, and byte-compatibility
// keeps it that way.
func (s *Server) acquireTenant(r *http.Request, canon string) (*Server, func(), error) {
	if canon == defaultTenantName {
		return s, func() {}, nil
	}
	if s.reg == nil {
		return nil, nil, fmt.Errorf("%w: %s", registry.ErrNotFound, canon)
	}
	var tn *registry.Tenant
	var release func()
	var err error
	if s.adminOK(r) {
		tn, release, err = s.reg.AcquireAny(canon)
	} else {
		tn, release, err = s.reg.Acquire(canon, r.Header.Get(datasetTokenHeader))
	}
	if err != nil {
		return nil, nil, err
	}
	ts, ok := tn.Resource().(*Server)
	if !ok {
		release()
		return nil, nil, fmt.Errorf("%w: %s", registry.ErrNotFound, canon)
	}
	return ts, release, nil
}

// writeTenantError maps registry resolution errors onto HTTP statuses.
func (s *Server) writeTenantError(w http.ResponseWriter, name string, err error) {
	switch {
	case errors.Is(err, registry.ErrUnauthorized):
		s.writeError(w, http.StatusUnauthorized, fmt.Errorf("dataset %s: unauthorized", name))
	case errors.Is(err, registry.ErrDraining):
		w.Header().Set("Retry-After", retryAfter)
		s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("dataset %s is draining", name))
	default:
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
	}
}

// tenantRoute dispatches the /v1/d/{dataset}/ mirror of one routes()
// pattern: canonicalize the path's dataset name, authenticate and pin the
// tenant, and hand the request to that tenant's own instrumented handler
// chain. The pin is held for the whole handler, so a concurrent drain waits
// for this request.
func (s *Server) tenantRoute(pattern string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("dataset")
		canon, err := registry.Canonical(name)
		if err != nil {
			s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
			return
		}
		ts, release, err := s.acquireTenant(r, canon)
		if err != nil {
			s.writeTenantError(w, canon, err)
			return
		}
		defer release()
		ts.routes()[pattern].ServeHTTP(w, r)
	})
}

// eachTenant runs fn over every open named tenant's server (sorted by
// name), pinning each against concurrent close for the duration of fn.
func (s *Server) eachTenant(fn func(name string, ts *Server)) {
	if s.reg == nil {
		return
	}
	for _, name := range s.reg.Names() {
		tn, release, err := s.reg.AcquireAny(name)
		if err != nil {
			continue // draining or already closed
		}
		if ts, ok := tn.Resource().(*Server); ok {
			fn(name, ts)
		}
		release()
	}
}

// Close cancels the server's detached computations and flushes its durable
// state: every shard's journal is synced and closed, so the directory can
// be reopened (or deleted) by another owner. The server owns every journal its fabric holds: the registry
// closes a tenant after draining it, and ServeListener closes the root
// after its final drain. A caller of New that serves the Handler itself
// calls Close when done.
func (s *Server) Close() error {
	s.stopDetached()
	s.fabric.syncAll()
	for i := range s.fabric.shards {
		s.fabric.detachJournal(i)
	}
	return nil
}

// buildTenantResource is the registry's constructor: derive a child server
// config from the root's template, generate the tenant's dataset from its
// manifest spec, and wire its WAL tree under the tenant directory. Named
// tenants always run the sharded fabric (>=1 shard) so their WAL segments
// live at <dir>/shard-NNN/, never loose next to tenant.json.
func (s *Server) buildTenantResource(name, dir string, m registry.Manifest) (registry.Resource, error) {
	var spec tenantSpec
	if len(m.Spec) > 0 {
		if err := json.Unmarshal(m.Spec, &spec); err != nil {
			return nil, fmt.Errorf("bad dataset spec: %w", err)
		}
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Scale <= 0 {
		spec.Scale = 0.05
	}
	if spec.Shards < 1 {
		spec.Shards = 1
	}
	w := s.tmpl.Window
	if spec.Window != "" {
		var err error
		if w, err = trace.ParseWindow(spec.Window); err != nil {
			return nil, err
		}
	}
	ds, err := simulate.Generate(simulate.Options{Seed: spec.Seed, Scale: spec.Scale})
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Dataset:            ds.Served(),
		Window:             w,
		Shards:             spec.Shards,
		FrozenDataset:      s.tmpl.FrozenDataset,
		CorrelationWindows: s.tmpl.CorrelationWindows,
		RequestTimeout:     s.tmpl.RequestTimeout,
		BreakerThreshold:   s.tmpl.BreakerThreshold,
		ShardDeadline:      s.tmpl.ShardDeadline,
		HeartbeatDeadline:  s.tmpl.HeartbeatDeadline,
		SnapshotPolicy:     s.tmpl.SnapshotPolicy,
		Now:                s.now,
		Logf:               s.logf,
	}
	// Per-tenant quota feeds the tenant's own admission layer: the expensive
	// compute routes get the quota's concurrency bound, layered over any
	// operator-supplied limits.
	limits := make(map[string]RouteLimit, len(s.tmpl.Limits)+3)
	for route, lim := range s.tmpl.Limits {
		limits[route] = lim
	}
	if m.Quota.MaxConcurrent > 0 {
		rl := RouteLimit{Concurrency: m.Quota.MaxConcurrent, Queue: m.Quota.MaxQueue}
		for _, route := range []string{"/v1/condprob", "/v1/correlations", "/v1/anomalies"} {
			limits[route] = rl
		}
	}
	if len(limits) > 0 {
		cfg.Limits = limits
	}
	if dir != "" {
		wopts := s.tmpl.TenantWAL
		wopts.Dir = dir
		cfg.ShardWAL = wopts
		cfg.Standby = spec.Standby
	}
	ts, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	ts.name = m.Name
	ts.quota = m.Quota
	return ts, nil
}

// datasetCreateRequest is the POST /v1/datasets body.
type datasetCreateRequest struct {
	Name    string         `json:"name"`
	Token   string         `json:"token,omitempty"`
	Quota   registry.Quota `json:"quota,omitempty"`
	Seed    int64          `json:"seed,omitempty"`
	Scale   float64        `json:"scale,omitempty"`
	Window  string         `json:"window,omitempty"`
	Shards  int            `json:"shards,omitempty"`
	Standby bool           `json:"standby,omitempty"`
}

// datasetStatusJSON is one dataset's row in GET /v1/datasets.
type datasetStatusJSON struct {
	Name           string `json:"name"`
	State          string `json:"state"`
	Systems        int    `json:"systems"`
	DatasetVersion uint64 `json:"dataset_version"`
	Shards         int    `json:"shards"`
	ReadOnly       bool   `json:"read_only"`
}

// maxDatasetBody bounds a POST /v1/datasets body.
const maxDatasetBody = 1 << 16

func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) {
	if !s.adminGate(w, r) {
		return
	}
	var req datasetCreateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDatasetBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	canon, err := registry.Canonical(req.Name)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if canon == defaultTenantName {
		s.writeError(w, http.StatusConflict, fmt.Errorf("dataset name %q is reserved", canon))
		return
	}
	spec, err := json.Marshal(tenantSpec{
		Seed: req.Seed, Scale: req.Scale, Window: req.Window,
		Shards: req.Shards, Standby: req.Standby,
	})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	tn, err := s.reg.Create(canon, registry.Manifest{Token: req.Token, Quota: req.Quota, Spec: spec})
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, registry.ErrExists) {
			code = http.StatusConflict
		}
		s.writeError(w, code, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, tn.Resource().(*Server).fabric.status().entry(tn.Name(), tn.State().String()))
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	if !s.adminGate(w, r) {
		return
	}
	open := registry.StateOpen.String()
	rows := []datasetStatusJSON{s.fabric.status().entry(defaultTenantName, open)}
	s.eachTenant(func(name string, ts *Server) { rows = append(rows, ts.fabric.status().entry(name, open)) })
	s.writeJSON(w, http.StatusOK, map[string]any{"datasets": rows})
}

func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	if !s.adminGate(w, r) {
		return
	}
	canon, err := registry.Canonical(r.PathValue("dataset"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", r.PathValue("dataset")))
		return
	}
	if canon == defaultTenantName {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("the default dataset cannot be deleted"))
		return
	}
	if err := s.reg.Delete(r.Context(), canon); err != nil {
		switch {
		case errors.Is(err, registry.ErrNotFound):
			s.writeError(w, http.StatusNotFound, err)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			w.Header().Set("Retry-After", retryAfter)
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("dataset %s still draining: %w", canon, err))
		default:
			s.writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"deleted": canon})
}
