package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// contractDS is fleetDS with every system in group 1 except system 6, so a
// group=2 condprob query is scoped to exactly the shard owning system 6.
func contractDS() *trace.Dataset {
	ds := fleetDS()
	for i := range ds.Systems {
		ds.Systems[i].Group = trace.Group1
		if ds.Systems[i].ID == 6 {
			ds.Systems[i].Group = trace.Group2
		}
	}
	return ds
}

// openBreaker trips shard i's compute circuit (report(false) × threshold).
func openBreaker(t *testing.T, s *Server, i int) {
	t.Helper()
	br := s.fabric.shards[i].breaker
	for j := 0; j < br.threshold; j++ {
		br.report(false)
	}
	if open, _ := br.snapshot(); !open {
		t.Fatalf("shard %d breaker not open after %d failures", i, br.threshold)
	}
}

// TestRouteContract pins the serving contract every analysis route shares,
// over {condprob, correlations, anomalies} × {n=1, 3-shard fleet-wide,
// 3-shard scoped to one shard}: X-Cache goes MISS→HIT, X-Dataset-Version is
// the body's dataset_version, X-Shard-Versions appears only when several
// shards answer, and an open breaker on an involved shard degrades the
// route — to cache-only hits and 503 misses when one shard answers the
// whole query, to cached parts plus X-Partial when several answer.
func TestRouteContract(t *testing.T) {
	routes := []struct {
		name, cached, uncached, scope string
	}{
		{"condprob", "/v1/condprob?anchor=HW&window=day", "/v1/condprob?anchor=SW&window=day", "&group=2"},
		{"correlations", "/v1/correlations?window=week&min_support=1&min_confidence=0.01",
			"/v1/correlations?window=day&min_support=1&min_confidence=0.01", "&system=6"},
		{"anomalies", "/v1/anomalies?k=3", "/v1/anomalies?k=4", "&system=6"},
	}
	fabrics := []struct {
		name   string
		shards int
		scoped bool
	}{
		{"n=1", 0, false},
		{"n=1 shard-000", 1, false},
		{"fleet-wide", 3, false},
		{"one-shard", 3, true},
	}
	for _, rt := range routes {
		for _, fb := range fabrics {
			t.Run(rt.name+"/"+fb.name, func(t *testing.T) {
				s, err := New(Config{
					Dataset: contractDS(),
					Window:  trace.Day,
					Now:     func() time.Time { return day(100) },
					Shards:  fb.shards,
					Logf:    func(string, ...any) {},
				})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				cached, uncached := ts.URL+rt.cached, ts.URL+rt.uncached
				if fb.scoped {
					cached += rt.scope
					uncached += rt.scope
				}
				// Whole mode: exactly one shard answers the whole query.
				whole := s.ShardCount() == 1 || fb.scoped
				victim := 0
				if fb.scoped {
					victim = s.fabric.owner[6]
				}

				check := func(url, wantCache string) *http.Response {
					t.Helper()
					resp, body := getRaw(t, url)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("GET %s = %d; body: %s", url, resp.StatusCode, body)
					}
					if got := resp.Header.Get("X-Cache"); got != wantCache {
						t.Fatalf("GET %s: X-Cache = %q, want %q", url, got, wantCache)
					}
					var out struct {
						DatasetVersion uint64 `json:"dataset_version"`
					}
					if err := json.Unmarshal(body, &out); err != nil {
						t.Fatalf("decoding %s: %v", url, err)
					}
					if got := resp.Header.Get("X-Dataset-Version"); got != strconv.FormatUint(out.DatasetVersion, 10) {
						t.Fatalf("GET %s: X-Dataset-Version = %q, body dataset_version = %d", url, got, out.DatasetVersion)
					}
					if got := resp.Header.Get("X-Shard-Versions"); (got != "") == whole {
						t.Fatalf("GET %s: X-Shard-Versions = %q in whole mode = %v", url, got, whole)
					}
					return resp
				}
				check(cached, "MISS")
				check(cached, "HIT")

				openBreaker(t, s, victim)
				resp := check(cached, "HIT")
				if resp.Header.Get("X-Partial") != "" {
					t.Fatalf("cached answer turned partial under an open breaker")
				}
				if whole {
					if got := resp.Header.Get("X-Degraded"); got != "cache-only" {
						t.Fatalf("hit under open breaker: X-Degraded = %q, want cache-only", got)
					}
					miss, body := getRaw(t, uncached)
					if miss.StatusCode != http.StatusServiceUnavailable {
						t.Fatalf("miss under open breaker = %d, want 503; body: %s", miss.StatusCode, body)
					}
					if got := miss.Header.Get("X-Degraded"); got != "circuit-open" {
						t.Fatalf("miss under open breaker: X-Degraded = %q, want circuit-open", got)
					}
					if miss.Header.Get("Retry-After") == "" {
						t.Fatal("circuit-open 503 missing Retry-After")
					}
					return
				}
				if got := resp.Header.Get("X-Degraded"); got != "" {
					t.Fatalf("parts-mode hit: X-Degraded = %q", got)
				}
				part := check(uncached, "MISS")
				if part.Header.Get("X-Partial") != "true" {
					t.Fatalf("uncached part on an open shard: X-Partial = %q, want true", part.Header.Get("X-Partial"))
				}
			})
		}
	}
}

// TestCompareCircuitOpen503: an open breaker on a compared tenant is the
// same retryable state /v1/condprob answers with 503, not a server error.
func TestCompareCircuitOpen503(t *testing.T) {
	ts, s, _ := newTestServerFull(t, func(cfg *Config) { cfg.TenantRoot = t.TempDir() })
	createTenant(t, ts.URL, `{"name":"a","seed":3,"scale":0.02}`, nil)
	tn, release, err := s.reg.AcquireAny("a")
	if err != nil {
		t.Fatal(err)
	}
	openBreaker(t, tn.Resource().(*Server), 0)
	release()

	for _, p := range []string{
		"/v1/compare/condprob?datasets=default,a&anchor=NET&window=day",
		"/v1/compare/rates?datasets=default,a&window=day",
	} {
		resp, body := getRaw(t, ts.URL+p)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s = %d, want 503; body: %s", p, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: 503 missing Retry-After", p)
		}
	}
}

// TestShardedBreakerGauge: the breaker gauges cover every shard, not just
// shard 0 — one open circuit anywhere reads as open, and trips sum.
func TestShardedBreakerGauge(t *testing.T) {
	s, ts := newShardedServer(t, "")
	openBreaker(t, s, 2)
	m := fetchMetrics(t, ts)
	for sample, want := range map[string]string{
		"hpcserve_breaker_open":        "1",
		"hpcserve_breaker_trips_total": "1",
	} {
		if v, ok := metricValue(t, m, sample); !ok || v != want {
			t.Errorf("%s = %q, %v, want %s", sample, v, ok, want)
		}
	}
	openBreaker(t, s, 0)
	if v, _ := metricValue(t, fetchMetrics(t, ts), "hpcserve_breaker_trips_total"); v != "2" {
		t.Errorf("trips across two shards = %q, want 2", v)
	}
}

// panicQuery is a test query keyed on its own text.
type panicQuery string

func (q panicQuery) Key() string { return string(q) }

// TestPanickingPartReleasesKey: a part that panics in whole mode releases
// its singleflight key and reports a failure to the shard's breaker, so the
// next identical query computes instead of blocking on a key left in flight.
func TestPanickingPartReleasesKey(t *testing.T) {
	s, err := New(Config{Dataset: testDS(), Window: trace.Day, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var calls atomic.Int32
	rt := analysisRoute[panicQuery, int, int]{
		name: "panic",
		part: func(_ context.Context, _ *shard, snap *store.Snapshot, _ panicQuery) (int, uint64, error) {
			if calls.Add(1) == 1 {
				panic("kernel bug")
			}
			return 42, snap.Version(), nil
		},
		render: func(_ panicQuery, _ uint64, parts []int) int { return parts[0] },
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("the part's panic was swallowed")
			}
		}()
		runQuery(context.Background(), s, &rt, "q", []int{0}, false)
	}()
	br := s.fabric.shards[0].breaker
	br.mu.Lock()
	failures := br.failures
	br.mu.Unlock()
	if failures != 1 {
		t.Errorf("breaker failures after a panicking compute = %d, want 1", failures)
	}
	next := make(chan execResult[int], 1)
	go func() { next <- runQuery(context.Background(), s, &rt, "q", []int{0}, false) }()
	select {
	case res := <-next:
		if res.err != nil || res.body != 42 || res.cache != "MISS" {
			t.Errorf("next query = %d, %q, %v; want a computed 42", res.body, res.cache, res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("next identical query still blocked on the panicked computation")
	}
}
