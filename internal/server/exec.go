// The query executor: one serving path for every cached analysis route
// (/v1/condprob, /v1/correlations, /v1/anomalies) and, in strict mode, for
// the comparative endpoints built on them. A route supplies a canonical
// query key, a per-shard part and a render; the executor owns the rest —
// snapshot pinning, versioned cache keys, the circuit breaker, singleflight
// under the server's detached context, analysis-pool admission,
// scatter-gather, survivor collection, and version/partial stamping.
//
// The number of shards a query involves picks the mode:
//
//   - one: whole mode. The cache holds the rendered body; an open breaker
//     degrades the route to cache-only hits and 503 misses.
//   - several: parts mode. The cache holds each shard's part; a failed or
//     circuit-open part drops out and the answer is stamped X-Partial.
//   - none (a condprob group with no systems): the empty answer, rendered
//     without any compute.
//
// Strict mode is the same core with any missing part failing the call.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/store"
)

// errCircuitOpen marks a compute refused because its shard's circuit
// breaker is open. It is retryable, like a down shard.
var errCircuitOpen = errors.New("compute circuit open")

// keyed is a parsed query with a canonical cache key.
type keyed interface{ Key() string }

// analysisRoute is everything one cached analysis route contributes: a name
// (cache-key prefix and error label), the per-shard part computed over a
// pinned snapshot — returning the dataset version it answers for — and the
// render from surviving parts to the wire body. Parts must merge exactly:
// render over one shard's part is the same body whole mode caches.
type analysisRoute[Q keyed, P, B any] struct {
	name   string
	part   func(ctx context.Context, sh *shard, snap *store.Snapshot, q Q) (P, uint64, error)
	render func(q Q, version uint64, parts []P) B
}

// versioned is one cache entry: a body or part with the version it answers.
type versioned[T any] struct {
	val     T
	version uint64
}

// execResult is one executor call's outcome. Only serveQuery turns it into
// response headers.
type execResult[B any] struct {
	body    B
	version uint64 // the dataset version body answers
	// cache is the X-Cache outcome (HIT, MISS, SHARED), "" when no cache
	// was consulted; degraded the X-Degraded marker.
	cache    string
	degraded string
	// gathered holds the scatter's slots in parts mode (nil idxs otherwise).
	gathered
	err error
}

// runQuery answers q over the involved shards (ascending). With strict set,
// a missing part fails the call instead of degrading it to a partial.
func runQuery[Q keyed, P, B any](ctx context.Context, s *Server, rt *analysisRoute[Q, P, B], q Q, involved []int, strict bool) execResult[B] {
	switch len(involved) {
	case 0:
		v := s.fabric.maxVersion()
		return execResult[B]{body: rt.render(q, v, nil), version: v}
	case 1:
		return runWhole(ctx, s, rt, q, involved[0])
	}
	return runParts(ctx, s, rt, q, involved, strict)
}

// serveQuery is the executor's HTTP face: run q and stamp the outcome.
func serveQuery[Q keyed, P, B any](s *Server, w http.ResponseWriter, r *http.Request, rt *analysisRoute[Q, P, B], q Q, involved []int) {
	res := runQuery(r.Context(), s, rt, q, involved, false)
	h := w.Header()
	if res.cache != "" {
		h.Set("X-Cache", res.cache)
	}
	if res.degraded != "" {
		h.Set("X-Degraded", res.degraded)
	}
	if res.err != nil {
		s.writeBodyError(w, res.err)
		return
	}
	if res.idxs != nil {
		s.stampPartial(w, res.gathered)
	} else {
		h.Set("X-Dataset-Version", strconv.FormatUint(res.version, 10))
	}
	s.writeJSON(w, http.StatusOK, res.body)
}

// writeBodyError maps an executor or body-computation error onto HTTP: a
// down or slow shard, an open circuit and a timed-out compute are retryable
// 503s; anything else is a 500.
func (s *Server) writeBodyError(w http.ResponseWriter, err error) {
	if errors.Is(err, errShardDown) || errors.Is(err, errShardSlow) || errors.Is(err, errCircuitOpen) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.shardUnavailable(w, err)
		return
	}
	s.writeError(w, http.StatusInternalServerError, err)
}

// cacheKey keys a result by route, shard, promotion generation and pinned
// version: an append in flight cannot tear an answer, a result computed over
// an older dataset version is never served for a newer one, and a result
// computed against a dead leader dies with it.
func cacheKey(name string, sh *shard, snap *store.Snapshot, qkey string) string {
	return fmt.Sprintf("%s|s%d.g%d.v%d|%s", name, sh.idx, sh.gen.Load(), snap.Version(), qkey)
}

// runWhole answers q entirely from shard idx and caches the rendered body.
func runWhole[Q keyed, P, B any](ctx context.Context, s *Server, rt *analysisRoute[Q, P, B], q Q, idx int) (res execResult[B]) {
	f := s.fabric
	if st := f.sup.State(idx); st != store.ShardReady {
		res.err = fmt.Errorf("%w: shard %d %s", errShardDown, idx, st)
		return res
	}
	sh := f.shards[idx]
	st, _, _ := sh.view()
	snap := st.Snapshot()
	key := cacheKey(rt.name, sh, snap, q.Key())
	// Cached answers flow regardless of breaker state: the pinned snapshot
	// is immutable, so a cached result is correct even while compute is
	// degraded. Only a cache miss consults the breaker — a hit must never
	// consume the half-open trial slot (nothing would report back and the
	// breaker would wedge half-open).
	if val, ok := s.cache.Get(key); ok {
		res.cache = s.countOutcome(outcomeHit)
		if open, _ := sh.breaker.snapshot(); open {
			s.metrics.degraded.Add(1)
			res.degraded = "cache-only"
		}
		e := val.(versioned[B])
		res.body, res.version = e.val, e.version
		return res
	}
	// While the circuit is open, compute is off-limits: shed cache misses
	// instead of piling onto a struggling compute pool.
	if !sh.breaker.allow() {
		s.metrics.degraded.Add(1)
		res.degraded = "circuit-open"
		res.err = fmt.Errorf("%s %w", rt.name, errCircuitOpen)
		return res
	}
	val, oc, err := s.compute(ctx, key, sh, func(ctx context.Context) (any, error) {
		p, err := admitPart(ctx, rt, sh, snap, q)
		if err != nil {
			return nil, err
		}
		return versioned[B]{rt.render(q, p.version, []P{p.val}), p.version}, nil
	})
	res.cache = s.countOutcome(oc)
	if err != nil {
		res.err = err
		return res
	}
	e := val.(versioned[B])
	res.body, res.version = e.val, e.version
	return res
}

// runParts scatters q over several shards, each computing (or serving from
// cache) its own part behind its own breaker, and renders the survivors.
func runParts[Q keyed, P, B any](ctx context.Context, s *Server, rt *analysisRoute[Q, P, B], q Q, involved []int, strict bool) (res execResult[B]) {
	f := s.fabric
	qkey := q.Key()
	hits := make([]bool, len(involved))
	parts, g := gather(ctx, f, involved, func(k, i int, st *store.Store, _ *risk.Engine) (zero P, _ uint64, err error) {
		sh := f.shards[i]
		snap := st.Snapshot()
		key := cacheKey(rt.name+".part", sh, snap, qkey)
		val, ok := s.cache.Get(key)
		switch {
		case ok:
			hits[k] = true
		case !sh.breaker.allow():
			return zero, 0, fmt.Errorf("shard %d %s %w", i, rt.name, errCircuitOpen)
		default:
			val, _, err = s.compute(ctx, key, sh, func(ctx context.Context) (any, error) {
				p, err := admitPart(ctx, rt, sh, snap, q)
				return p, err
			})
			if err != nil {
				return zero, 0, err
			}
		}
		e := val.(versioned[P])
		return e.val, e.version, nil
	})
	res.gathered = g
	if res.err = g.failure(strict); res.err != nil {
		return res
	}
	oc := outcomeHit
	for k, err := range g.errs {
		if err == nil && !hits[k] {
			oc = outcomeMiss
		}
	}
	res.cache = s.countOutcome(oc)
	res.version = g.version()
	res.body = rt.render(q, res.version, parts)
	return res
}

// compute runs fn once across concurrent callers of key, under the server's
// detached context rather than any request's: the result is shared with
// concurrent identical requests and cached, so one caller hanging up must
// not poison it, while each caller waits only until its own ctx ends. Only
// real computes report to the shard's breaker — shared waiters would
// double-count — and a panicking compute reports a failure.
func (s *Server) compute(ctx context.Context, key string, sh *shard, fn func(ctx context.Context) (any, error)) (any, outcome, error) {
	return s.cache.Do(ctx, key, func() (val any, err error) {
		ok := false
		defer func() { sh.breaker.report(ok) }()
		cctx, cancel := context.WithTimeout(s.detached, s.timeout)
		defer cancel()
		val, err = fn(cctx)
		ok = err == nil
		return val, err
	})
}

// admitPart runs one route part through the shared analysis pool, which
// bounds how many kernel computations run at once when many distinct
// queries miss the cache together.
func admitPart[Q keyed, P, B any](ctx context.Context, rt *analysisRoute[Q, P, B], sh *shard, snap *store.Snapshot, q Q) (versioned[P], error) {
	var out versioned[P]
	err := analysis.Shared().Do(ctx, func() error {
		var err error
		out.val, out.version, err = rt.part(ctx, sh, snap, q)
		return err
	})
	return out, err
}

// countOutcome records a cache outcome in the metrics and returns its
// X-Cache value.
func (s *Server) countOutcome(oc outcome) string {
	switch oc {
	case outcomeHit:
		s.metrics.cacheHits.Add(1)
		return "HIT"
	case outcomeShared:
		s.metrics.cacheMisses.Add(1)
		s.metrics.shared.Add(1)
		return "SHARED"
	}
	s.metrics.cacheMisses.Add(1)
	return "MISS"
}

// gathered is one scatter's per-slot outcome, parallel to idxs: the version
// each surviving shard answered at, or why its slot is missing.
type gathered struct {
	idxs     []int
	versions []uint64
	errs     []error
}

// gather is the one way an uncached read touches shard state: it runs fn
// against each given shard through fabric.call (panic isolation) and
// returns the surviving parts in shard order (fn receives both the slot k
// and the shard index i). A one-slot gather calls fabric.call from the
// caller's goroutine under the caller's context; only a real scatter spends
// a goroutine and a per-shard deadline on each shard. A down, slow or
// panicking shard only fills its error slot; failure decides whether that
// is a partial answer or a failed one.
func gather[P any](ctx context.Context, f *fabric, idxs []int, fn func(k, i int, st *store.Store, eng *risk.Engine) (P, uint64, error)) ([]P, gathered) {
	g := gathered{idxs: idxs, versions: make([]uint64, len(idxs)), errs: make([]error, len(idxs))}
	parts := make([]P, len(idxs))
	slot := func(ctx context.Context, k, i int) {
		g.errs[k] = f.call(ctx, i, false, func(st *store.Store, eng *risk.Engine, _ *risk.Journal) error {
			p, v, err := fn(k, i, st, eng)
			parts[k], g.versions[k] = p, v
			return err
		})
	}
	if len(idxs) == 1 {
		slot(ctx, 0, idxs[0])
		if g.errs[0] != nil {
			return nil, g
		}
		return parts, g
	}
	var wg sync.WaitGroup
	for k, i := range idxs {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, f.deadline)
			defer cancel()
			slot(sctx, k, i)
		}(k, i)
	}
	wg.Wait()
	// A fresh slice, not an in-place compaction: a slow shard's call may
	// still be writing its own slot after its deadline fired.
	ok := make([]P, 0, len(idxs))
	for k, err := range g.errs {
		if err == nil {
			ok = append(ok, parts[k])
		}
	}
	return ok, g
}

// failure reports why a gather cannot answer: no shard survived (a lone
// shard's own error names it), or — in strict mode — any part is missing,
// because a comparative answer built on a partial count would silently
// compare unlike denominators.
func (g gathered) failure(strict bool) error {
	survived := false
	for _, err := range g.errs {
		if err != nil && (strict || len(g.errs) == 1) {
			return err
		}
		survived = survived || err == nil
	}
	if !survived {
		return fmt.Errorf("%w: no shard answered", errShardDown)
	}
	return nil
}

// version is the newest dataset version any surviving shard answered at.
func (g gathered) version() uint64 {
	var v uint64
	for k, err := range g.errs {
		if err == nil {
			v = max(v, g.versions[k])
		}
	}
	return v
}

// stampPartial stamps a gathered response: X-Dataset-Version is the newest
// surviving shard version, X-Shard-Versions the per-shard version vector
// (only when several shards answered), and X-Partial: true when any shard's
// part is missing — the explicit partial-result contract.
func (s *Server) stampPartial(w http.ResponseWriter, g gathered) {
	h := w.Header()
	h.Set("X-Dataset-Version", strconv.FormatUint(g.version(), 10))
	if len(g.idxs) > 1 {
		h.Set("X-Shard-Versions", g.vector())
	}
	for _, err := range g.errs {
		if err != nil {
			h.Set("X-Partial", "true")
			s.metrics.partial.Add(1)
			return
		}
	}
}

// vector renders the per-shard version vector: "0:12,1:down,2:slow" pairs
// each shard index with the version its part answered at, or the reason it
// is missing.
func (g gathered) vector() string {
	var b strings.Builder
	for k, i := range g.idxs {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:", i)
		switch {
		case g.errs[k] == nil:
			fmt.Fprintf(&b, "%d", g.versions[k])
		case errors.Is(g.errs[k], errShardSlow):
			b.WriteString("slow")
		default:
			b.WriteString("down")
		}
	}
	return b.String()
}
