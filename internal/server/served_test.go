package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/simulate"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// TestServedTablesAnswerAsFull is the served-table differential: over one
// POST stream, a server given a generated dataset with every table and a
// server given only its served tables (systems, failures, layouts) answer
// every GET route of the route table byte-identically, at Shards 0 and 4.
// Both are built below New, which would drop the unserved tables itself, so
// a route that read jobs, temperatures, maintenance or neutrons would
// answer differently here.
func TestServedTablesAnswerAsFull(t *testing.T) {
	gen := func() *trace.Dataset {
		ds, err := simulate.Generate(simulate.Options{Seed: 3, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	full := gen()
	if len(full.Jobs) == 0 || len(full.Temps) == 0 || len(full.Maintenance) == 0 || len(full.Neutrons) == 0 {
		t.Fatalf("generated dataset lacks an unserved table: %d jobs, %d temps, %d maintenance, %d neutrons",
			len(full.Jobs), len(full.Temps), len(full.Maintenance), len(full.Neutrons))
	}
	end := full.Systems[0].Period.End
	clock := &fakeClock{t: end.Add(-12 * time.Hour)}
	at := "at=" + end.Add(-6*time.Hour).UTC().Format(time.RFC3339)
	var evs []string
	for i, s := range full.Systems {
		evs = append(evs, fmt.Sprintf(`{"system":%d,"node":%d,"category":"HW","hw":"CPU","time":%q}`,
			s.ID, i%s.Nodes, end.Add(-time.Duration(20-i)*time.Hour).UTC().Format(time.RFC3339)))
	}
	stream := []string{
		`{"events":[` + strings.Join(evs[:len(evs)/2], ",") + `]}`,
		`{"events":[` + strings.Join(evs[len(evs)/2:], ",") + `]}`,
		fmt.Sprintf(`{"events":[{"system":%d,"node":0,"category":"SW","sw":"OS"}]}`, full.Systems[1].ID),
	}
	sys := full.Systems[2].ID
	requests := map[string]string{
		"/healthz":         "/healthz",
		"/readyz":          "/readyz",
		"/v1/risk/top":     "/v1/risk/top?k=6&" + at,
		"/v1/risk/{node}":  fmt.Sprintf("/v1/risk/0?system=%d&%s", sys, at),
		"/v1/condprob":     "/v1/condprob?anchor=HW&target=SW&window=week&scope=rack",
		"/v1/correlations": "/v1/correlations?window=week&min_support=1&min_confidence=0.01",
		"/v1/anomalies":    "/v1/anomalies?k=6",
		"/v1/snapshot":     "/v1/snapshot",
		"/v1/rates":        "/v1/rates?window=month",
	}
	for _, shards := range []int{0, 4} {
		var urls []string
		var srv *Server
		// A server takes its dataset over, so each gets its own copy.
		for _, ds := range []*trace.Dataset{gen(), gen().Served()} {
			s, err := newServer(Config{Dataset: ds, Window: trace.Day, Shards: shards, Now: clock.Now})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			urls = append(urls, ts.URL)
			srv = s
		}
		for _, body := range stream {
			for _, url := range urls {
				if resp, b := postEvents(t, url, body); resp.StatusCode != http.StatusOK {
					t.Fatalf("Shards %d: POST %s = %d; body: %s", shards, url, resp.StatusCode, b)
				}
			}
		}
		for pattern := range srv.routes() {
			path, ok := strings.CutPrefix(pattern, "GET ")
			if !ok {
				continue
			}
			target, ok := requests[path]
			if !ok {
				t.Fatalf("no request for GET route %s; add one", path)
			}
			resp0, body0 := getRaw(t, urls[0]+target)
			resp1, body1 := getRaw(t, urls[1]+target)
			if resp0.StatusCode != http.StatusOK || resp1.StatusCode != http.StatusOK {
				t.Fatalf("Shards %d: GET %s = %d / %d; bodies:\n%s\n%s", shards, target, resp0.StatusCode, resp1.StatusCode, body0, body1)
			}
			if string(body0) != string(body1) {
				t.Errorf("Shards %d: GET %s: full and served bodies differ:\n%s\nvs\n%s", shards, target, body0, body1)
			}
		}
	}
}

// TestNewHoldsOnlyServedTables: New keeps systems, failures and layouts of
// Config.Dataset and no other table, in every shard of every layout.
func TestNewHoldsOnlyServedTables(t *testing.T) {
	for _, shards := range []int{0, 4} {
		ds, err := simulate.Generate(simulate.Options{Seed: 3, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Dataset: ds, Window: trace.Day, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if s.tmpl.Dataset != nil {
			t.Errorf("Shards %d: the tenant template keeps the boot dataset", shards)
		}
		var systems, failures, layouts int
		for i, sh := range s.fabric.shards {
			got := sh.st.Snapshot().Dataset()
			systems += len(got.Systems)
			failures += len(got.Failures)
			layouts += len(got.Layouts)
			if got.Jobs != nil || got.Temps != nil || got.Maintenance != nil || got.Neutrons != nil {
				t.Errorf("Shards %d: shard %d holds an unserved table", shards, i)
			}
		}
		if systems != len(ds.Systems) || failures != len(ds.Failures) || layouts != len(ds.Layouts) {
			t.Errorf("Shards %d: shards hold %d systems, %d failures, %d layouts; want %d, %d, %d", shards,
				systems, failures, layouts, len(ds.Systems), len(ds.Failures), len(ds.Layouts))
		}
		s.Close()
	}
}
