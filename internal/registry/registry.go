// Package registry owns named datasets ("tenants") for a multi-tenant
// serving process. Each tenant is an opaque Resource — in practice a full
// store + analysis engine + correlation miner + shard fabric + WAL tree —
// built by a caller-supplied constructor and parked under a canonical name.
//
// The registry is the single authority on tenant lifecycle:
//
//	Create  -> persist a manifest, build the resource, state Open
//	Acquire -> authenticate and pin a tenant for one request
//	Drain   -> stop admitting new acquisitions, wait for in-flight ones
//	Close   -> release the resource (journals synced and closed)
//	Delete  -> Drain + Close + remove the tenant's directory tree
//
// Durable tenants live under <root>/<name>/: a tenant.json manifest beside
// the tenant's WAL tree (<root>/<name>/shard-NNN/...). OpenAll rebuilds
// every manifested tenant at boot, which combined with deterministic
// dataset generation gives kill-and-recover semantics per tenant: the
// manifest pins the generator spec, the WAL tree replays the ingest.
package registry

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/hpcfail/hpcfail/internal/iofault"
)

// Lifecycle and access errors, surfaced to HTTP handlers for status
// mapping (404 / 401 / 503 / 409).
var (
	ErrNotFound     = errors.New("registry: dataset not found")
	ErrUnauthorized = errors.New("registry: unauthorized")
	ErrDraining     = errors.New("registry: dataset is draining")
	ErrExists       = errors.New("registry: dataset already exists")
)

// State is a tenant's lifecycle position.
type State int

const (
	// StateOpen admits new acquisitions.
	StateOpen State = iota
	// StateDraining rejects new acquisitions while in-flight ones finish.
	StateDraining
	// StateClosed means the resource has been released.
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Quota bounds one tenant's resource appetite. Zero fields mean
// unlimited; MaxConcurrent/MaxQueue feed the server's admission layer,
// MaxEvents caps lifetime ingested events.
type Quota struct {
	MaxEvents     int64 `json:"max_events,omitempty"`
	MaxConcurrent int   `json:"max_concurrent,omitempty"`
	MaxQueue      int   `json:"max_queue,omitempty"`
}

// Manifest is the durable description of a tenant: everything needed to
// rebuild it from scratch at boot. Spec is opaque to the registry — the
// Build constructor interprets it (dataset seed, scale, shard count...).
type Manifest struct {
	Name  string          `json:"name"`
	Token string          `json:"token,omitempty"`
	Quota Quota           `json:"quota,omitempty"`
	Spec  json.RawMessage `json:"spec,omitempty"`
}

// Resource is what the registry manages per tenant. Close must flush and
// release durable state (sync WALs, close journals); it is called at most
// once, after all acquisitions have been released.
type Resource interface {
	Close() error
}

// Config assembles a Registry.
type Config struct {
	// Root is the directory holding one subdirectory per durable tenant.
	// Empty means tenants are memory-only: no manifests are written and
	// OpenAll finds nothing.
	Root string
	// Build constructs a tenant's resource. dir is the tenant's directory
	// ("" for memory-only registries) where its WAL tree lives. Required.
	Build func(name, dir string, m Manifest) (Resource, error)
	// Logf receives lifecycle logs; nil discards them.
	Logf func(format string, args ...any)
}

// Registry is a concurrency-safe named-tenant table. Build with New.
type Registry struct {
	root  string
	build func(name, dir string, m Manifest) (Resource, error)
	logf  func(format string, args ...any)

	mu      sync.Mutex
	tenants map[string]*Tenant
}

// Tenant is one registered dataset. Accessors are safe for concurrent
// use; the resource itself is pinned via Acquire's release function.
type Tenant struct {
	name string
	dir  string
	man  Manifest
	res  Resource

	mu     sync.Mutex
	state  State
	refs   int
	idleCh chan struct{}
}

// New builds a registry. Call OpenAll afterwards to rebuild durable
// tenants from their manifests.
func New(cfg Config) (*Registry, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("registry: Config.Build is required")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Registry{
		root:    cfg.Root,
		build:   cfg.Build,
		logf:    logf,
		tenants: make(map[string]*Tenant),
	}, nil
}

const maxNameLen = 32

// Canonical lowercases and validates a tenant name: 1..32 characters of
// [a-z0-9_-], not starting with '-' or '_', and never starting with
// "shard-" (which would collide with the WAL tree's shard directories
// under a shared root). Canonical is a fixed point: Canonical(Canonical(x))
// == Canonical(x) for every accepted x.
func Canonical(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("registry: empty dataset name")
	}
	if len(name) > maxNameLen {
		return "", fmt.Errorf("registry: dataset name longer than %d characters", maxNameLen)
	}
	b := []byte(name)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
			b[i] = c
		}
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return "", fmt.Errorf("registry: dataset name %q has invalid character %q", name, c)
		}
	}
	canon := string(b)
	if canon[0] == '-' || canon[0] == '_' {
		return "", fmt.Errorf("registry: dataset name %q must start with a letter or digit", name)
	}
	if strings.HasPrefix(canon, "shard-") {
		return "", fmt.Errorf("registry: dataset name %q collides with the shard directory namespace", name)
	}
	return canon, nil
}

const manifestFile = "tenant.json"

// manifestTempPattern names the temps writeManifest stages through; OpenAll
// sweeps the ones a crash stranded.
const manifestTempPattern = ".tenant-*"

// Create registers a new tenant: canonicalize the name, persist the
// manifest (durable registries only), build the resource, and open it.
// The write-then-build order means a crash mid-Create leaves a manifest
// that OpenAll will rebuild — never a resource without a manifest.
func (r *Registry) Create(name string, m Manifest) (*Tenant, error) {
	canon, err := Canonical(name)
	if err != nil {
		return nil, err
	}
	m.Name = canon

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[canon]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, canon)
	}
	dir := ""
	if r.root != "" {
		dir = filepath.Join(r.root, canon)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: creating %s: %w", dir, err)
		}
		// The root's fsync makes the new directory's entry durable, so the
		// manifest written into it below cannot vanish with it.
		if err := iofault.Disk.SyncDir(r.root); err != nil {
			return nil, fmt.Errorf("registry: syncing %s: %w", r.root, err)
		}
		if err := writeManifest(dir, m); err != nil {
			return nil, err
		}
	}
	res, err := r.build(canon, dir, m)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, fmt.Errorf("registry: building dataset %s: %w", canon, err)
	}
	t := &Tenant{name: canon, dir: dir, man: m, res: res, state: StateOpen}
	r.tenants[canon] = t
	r.logf("registry: dataset %s created", canon)
	return t, nil
}

// OpenAll scans the root for tenant manifests and rebuilds each one. It
// first sweeps each directory's stranded manifest temps: a crash mid-Create
// can leave one beside no manifest at all. A tenant that fails to build
// fails the whole boot: silently serving a subset of durable datasets would
// be worse than not starting.
func (r *Registry) OpenAll() error {
	if r.root == "" {
		return nil
	}
	entries, err := os.ReadDir(r.root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("registry: scanning %s: %w", r.root, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(r.root, e.Name())
		if _, err := iofault.SweepTemps(nil, dir, manifestTempPattern); err != nil {
			r.logf("registry: sweeping manifest temps in %s: %v", dir, err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
		if err != nil {
			if os.IsNotExist(err) {
				continue // a shard-NNN dir or unrelated directory
			}
			return fmt.Errorf("registry: reading manifest in %s: %w", dir, err)
		}
		var m Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return fmt.Errorf("registry: decoding manifest in %s: %w", dir, err)
		}
		canon, err := Canonical(m.Name)
		if err != nil {
			return fmt.Errorf("registry: manifest in %s: %w", dir, err)
		}
		r.mu.Lock()
		_, exists := r.tenants[canon]
		r.mu.Unlock()
		if exists {
			continue
		}
		res, err := r.build(canon, dir, m)
		if err != nil {
			return fmt.Errorf("registry: reopening dataset %s: %w", canon, err)
		}
		t := &Tenant{name: canon, dir: dir, man: m, res: res, state: StateOpen}
		r.mu.Lock()
		r.tenants[canon] = t
		r.mu.Unlock()
		r.logf("registry: dataset %s reopened", canon)
	}
	return nil
}

// Get returns a tenant by canonical name without authenticating or
// pinning it (status pages, metrics).
func (r *Registry) Get(name string) (*Tenant, error) {
	r.mu.Lock()
	t, ok := r.tenants[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return t, nil
}

// Acquire authenticates and pins a tenant for one request. The release
// function must be called exactly when the request finishes (it is
// idempotent); Drain waits for all outstanding releases.
func (r *Registry) Acquire(name, token string) (*Tenant, func(), error) {
	t, err := r.Get(name)
	if err != nil {
		return nil, nil, err
	}
	if !t.tokenOK(token) {
		return nil, nil, fmt.Errorf("%w: dataset %s", ErrUnauthorized, name)
	}
	release, err := t.acquire()
	if err != nil {
		return nil, nil, err
	}
	return t, release, nil
}

// AcquireAny pins a tenant while skipping token authentication — the
// admin-token bypass and internal comparative queries use it.
func (r *Registry) AcquireAny(name string) (*Tenant, func(), error) {
	t, err := r.Get(name)
	if err != nil {
		return nil, nil, err
	}
	release, err := t.acquire()
	if err != nil {
		return nil, nil, err
	}
	return t, release, nil
}

// Drain moves a tenant to StateDraining and waits until every
// outstanding acquisition has been released or ctx expires. Draining an
// already draining or closed tenant just waits again.
func (r *Registry) Drain(ctx context.Context, name string) error {
	t, err := r.Get(name)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if t.state == StateOpen {
		t.state = StateDraining
	}
	if t.refs == 0 {
		t.mu.Unlock()
		return nil
	}
	if t.idleCh == nil {
		t.idleCh = make(chan struct{})
	}
	ch := t.idleCh
	t.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close releases a tenant's resource. The tenant must be drained first;
// closing with acquisitions in flight is the caller's race to lose.
// Close is idempotent.
func (r *Registry) Close(name string) error {
	t, err := r.Get(name)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if t.state == StateClosed {
		t.mu.Unlock()
		return nil
	}
	t.state = StateClosed
	t.mu.Unlock()
	if err := t.res.Close(); err != nil {
		return fmt.Errorf("registry: closing dataset %s: %w", name, err)
	}
	r.logf("registry: dataset %s closed", name)
	return nil
}

// Delete drains, closes, deregisters and removes a tenant's directory
// tree. After Delete the name is free for reuse.
func (r *Registry) Delete(ctx context.Context, name string) error {
	if err := r.Drain(ctx, name); err != nil {
		return err
	}
	if err := r.Close(name); err != nil {
		return err
	}
	r.mu.Lock()
	t := r.tenants[name]
	delete(r.tenants, name)
	r.mu.Unlock()
	if t != nil && t.dir != "" {
		if err := os.RemoveAll(t.dir); err != nil {
			return fmt.Errorf("registry: removing %s: %w", t.dir, err)
		}
	}
	r.logf("registry: dataset %s deleted", name)
	return nil
}

// CloseAll drains nothing and closes every tenant — process shutdown,
// where in-flight requests have already been joined by the server.
func (r *Registry) CloseAll() error {
	var first error
	for _, name := range r.Names() {
		if err := r.Close(name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Names returns all registered tenant names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.tenants))
	for n := range r.tenants {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// All returns all tenants sorted by name.
func (r *Registry) All() []*Tenant {
	r.mu.Lock()
	ts := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	r.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	return ts
}

// Name returns the tenant's canonical name.
func (t *Tenant) Name() string { return t.name }

// Dir returns the tenant's directory ("" for memory-only tenants).
func (t *Tenant) Dir() string { return t.dir }

// Resource returns the tenant's resource. Callers must hold an
// acquisition (or know the tenant cannot be closed under them).
func (t *Tenant) Resource() Resource { return t.res }

// Manifest returns the tenant's manifest.
func (t *Tenant) Manifest() Manifest { return t.man }

// State returns the tenant's lifecycle state.
func (t *Tenant) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// tokenOK checks an auth token in constant time. An empty manifest token
// means the tenant is open to all callers.
func (t *Tenant) tokenOK(token string) bool {
	if t.man.Token == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(token), []byte(t.man.Token)) == 1
}

// acquire pins the tenant, returning an idempotent release.
func (t *Tenant) acquire() (func(), error) {
	t.mu.Lock()
	if t.state != StateOpen {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDraining, t.name)
	}
	t.refs++
	t.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			t.refs--
			if t.refs == 0 && t.idleCh != nil {
				close(t.idleCh)
				t.idleCh = nil
			}
			t.mu.Unlock()
		})
	}, nil
}

// writeManifest persists a manifest atomically and durably
// (iofault.WriteFileAtomic): a tenant whose creation was acknowledged comes
// back after a power loss with its whole manifest.
func writeManifest(dir string, m Manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: encoding manifest: %w", err)
	}
	if err := iofault.WriteFileAtomic(nil, filepath.Join(dir, manifestFile), manifestTempPattern, append(raw, '\n')); err != nil {
		return fmt.Errorf("registry: writing manifest: %w", err)
	}
	return nil
}
