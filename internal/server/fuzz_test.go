package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/hpcfail/hpcfail/internal/registry"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// FuzzRiskQueryParams throws arbitrary query strings at both HTTP
// query-parameter parsers. Beyond "no panic", it pins two invariants:
// successful risk queries are in range, and successful condprob queries
// canonicalize to a fixed point (re-parsing a cache key yields the same
// key, so cache lookups cannot alias distinct queries or split identical
// ones).
func FuzzRiskQueryParams(f *testing.F) {
	for _, seed := range []string{
		"",
		"k=10",
		"system=1",
		"system=1&k=3",
		"k=0",
		"k=1&k=2",
		"system=-1",
		"bogus=1",
		"anchor=HW",
		"anchor=hw/cpu&target=SW&window=week&scope=node",
		"anchor=SW/OS&window=month&scope=rack&group=1",
		"anchor=ENV/Power%20outage&window=day&scope=system",
		"window=36h",
		"window=never",
		"scope=galaxy",
		"anchor=HUMAN/whoops",
		"anchor=%gg",
		"a=1;b=2",
		strings.Repeat("k=1&", 100),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if q, err := parseRiskQuery(raw); err == nil {
			if q.K < 1 || q.K > maxTopK || q.System < 0 {
				t.Fatalf("parseRiskQuery(%q) accepted out-of-range %+v", raw, q)
			}
		}
		q, err := parseCondProbQuery(raw)
		if err != nil {
			return
		}
		if q.window <= 0 {
			t.Fatalf("parseCondProbQuery(%q) accepted non-positive window %v", raw, q.window)
		}
		if _, _, err := q.preds(); err != nil {
			t.Fatalf("canonical labels from %q do not re-parse: %v", raw, err)
		}
		key := q.Key()
		q2, err := parseCondProbQuery(key)
		if err != nil {
			t.Fatalf("cache key %q (from %q) does not re-parse: %v", key, raw, err)
		}
		if q2.Key() != key {
			t.Fatalf("canonicalization not a fixed point: %q -> %q -> %q", raw, key, q2.Key())
		}
	})
}

// FuzzCorrelationQueryParams is the same contract for the correlation and
// anomaly endpoints: accepted queries are in range, and canonical cache
// keys are a fixed point under re-parsing — the property that keeps one
// logical query from splitting across cache entries (or two from aliasing).
// The rates parser rides along: it never panics, rejects repeated
// parameters, and accepts only positive windows.
func FuzzCorrelationQueryParams(f *testing.F) {
	for _, seed := range []string{
		"",
		"window=week&scope=node",
		"window=36h&scope=rack&system=2",
		"min_support=3&min_confidence=0.2",
		"min_confidence=1e-9",
		"min_confidence=NaN",
		"min_support=0",
		"min_support=-5",
		"window=never",
		"scope=galaxy",
		"system=-1",
		"k=5",
		"k=0",
		"k=99999&system=3",
		"k=1&k=2",
		"bogus=1",
		"min_confidence=%gg",
		strings.Repeat("system=1&", 100),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if q, err := parseRatesQuery(raw); err == nil {
			if q.window <= 0 {
				t.Fatalf("parseRatesQuery(%q) accepted non-positive window %v", raw, q.window)
			}
			vals, _ := url.ParseQuery(raw)
			for key, vs := range vals {
				if len(vs) > 1 {
					t.Fatalf("parseRatesQuery(%q) accepted repeated parameter %q", raw, key)
				}
			}
		}
		if q, err := parseCorrelationsQuery(raw); err == nil {
			if q.window <= 0 || q.system < 0 || q.minSupport < 1 ||
				!(q.minConfidence > 0 && q.minConfidence <= 1) {
				t.Fatalf("parseCorrelationsQuery(%q) accepted out-of-range %+v", raw, q)
			}
			key := q.Key()
			q2, err := parseCorrelationsQuery(key)
			if err != nil {
				t.Fatalf("cache key %q (from %q) does not re-parse: %v", key, raw, err)
			}
			if q2.Key() != key {
				t.Fatalf("canonicalization not a fixed point: %q -> %q -> %q", raw, key, q2.Key())
			}
		}
		q, err := parseAnomaliesQuery(raw)
		if err != nil {
			return
		}
		if q.k < 1 || q.k > maxTopK || q.system < 0 {
			t.Fatalf("parseAnomaliesQuery(%q) accepted out-of-range %+v", raw, q)
		}
		key := q.Key()
		q2, err := parseAnomaliesQuery(key)
		if err != nil {
			t.Fatalf("anomalies key %q (from %q) does not re-parse: %v", key, raw, err)
		}
		if q2.Key() != key {
			t.Fatalf("anomalies canonicalization not a fixed point: %q -> %q -> %q", raw, key, q2.Key())
		}
	})
}

// FuzzTenantRoute throws arbitrary dataset names at the tenant path layer.
// Two contracts: name canonicalization is a fixed point (a canonical name
// re-canonicalizes to itself, so registry keys and directory names cannot
// alias), and the /v1/d/{dataset}/... dispatcher never panics or turns an
// unrecognized name into a 5xx — resolution failures are clean 404s (or
// 401 for a real tenant without its token).
func FuzzTenantRoute(f *testing.F) {
	clock := &fakeClock{t: day(100)}
	s, err := New(Config{
		Dataset:    testDS(),
		Window:     trace.Day,
		Now:        clock.Now,
		TenantRoot: f.TempDir(),
		Logf:       func(string, ...any) {},
	})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	create := httptest.NewRequest(http.MethodPost, "/v1/datasets",
		strings.NewReader(`{"name":"alpha","token":"tok","seed":1,"scale":0.01}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, create)
	if rec.Code != http.StatusCreated {
		f.Fatalf("seeding tenant = %d; body: %s", rec.Code, rec.Body)
	}

	for _, seed := range []string{
		"default",
		"alpha",
		"ALPHA",
		"shard-000",
		"-leading",
		"_leading",
		"a.b",
		"a/b",
		"a b",
		"a%2fb",
		"..",
		"",
		"DEFAULT",
		"🤖",
		strings.Repeat("a", 33),
		strings.Repeat("A", 32),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if canon, err := registry.Canonical(raw); err == nil {
			again, err := registry.Canonical(canon)
			if err != nil {
				t.Fatalf("canonical name %q (from %q) does not re-canonicalize: %v", canon, raw, err)
			}
			if again != canon {
				t.Fatalf("canonicalization not a fixed point: %q -> %q -> %q", raw, canon, again)
			}
		}
		// Escaped, the name is always a well-formed single path segment; the
		// dispatcher must answer it without panicking and without a 5xx.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/d/"+url.PathEscape(raw)+"/healthz", nil))
		switch rec.Code {
		case http.StatusOK, http.StatusNotFound, http.StatusUnauthorized,
			http.StatusMovedPermanently: // ServeMux path-cleaning redirect (".." and friends)
		default:
			t.Fatalf("GET /v1/d/{%q}/healthz = %d; body: %s", raw, rec.Code, rec.Body)
		}
		// Unescaped, the name may splice extra segments or a query into the
		// path; any parseable request must still get a non-5xx answer. The
		// request is assembled by hand — httptest.NewRequest would reject
		// bytes a hostile client can still put on the wire.
		target := "/v1/d/" + raw + "/healthz"
		u, err := url.ParseRequestURI(target)
		if err != nil {
			return
		}
		req := &http.Request{
			Method: http.MethodGet, URL: u,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Host: "fuzz.local", RequestURI: target,
			Header: http.Header{}, Body: http.NoBody,
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %q = %d; body: %s", target, rec.Code, rec.Body)
		}
	})
}
