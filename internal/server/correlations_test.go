package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// correlationsBody mirrors correlationsJSON for decoding.
type correlationsBody struct {
	Window         string  `json:"window"`
	Scope          string  `json:"scope"`
	System         int     `json:"system"`
	MinSupport     int64   `json:"min_support"`
	MinConfidence  float64 `json:"min_confidence"`
	DatasetVersion uint64  `json:"dataset_version"`
	Events         int64   `json:"events"`
	Rules          []struct {
		Anchor     string  `json:"anchor"`
		Target     string  `json:"target"`
		Scope      string  `json:"scope"`
		Support    int64   `json:"support"`
		Anchors    int64   `json:"anchors"`
		Confidence float64 `json:"confidence"`
		Lift       float64 `json:"lift"`
	} `json:"rules"`
}

type anomaliesBody struct {
	System         int    `json:"system"`
	K              int    `json:"k"`
	DatasetVersion uint64 `json:"dataset_version"`
	Anomalies      []struct {
		System int     `json:"system"`
		Node   int     `json:"node"`
		Score  float64 `json:"score"`
		Events int     `json:"events"`
	} `json:"anomalies"`
}

// TestCorrelationsEndpoint pins the single-shard happy path: testDS's
// repeated HW-then-SW same-node sequence surfaces as the HW→SW node rule,
// the response carries the pinned dataset version, and a repeated query is
// a cache hit.
func TestCorrelationsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	url := ts.URL + "/v1/correlations?window=week&scope=node&min_support=2&min_confidence=0.1"
	var body correlationsBody
	resp := getJSON(t, url, http.StatusOK, &body)
	if got := resp.Header.Get("X-Dataset-Version"); got != "1" {
		t.Fatalf("X-Dataset-Version = %q, want 1", got)
	}
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first query X-Cache = %q, want MISS", resp.Header.Get("X-Cache"))
	}
	if body.Window != "week" || body.Scope != "node" || body.DatasetVersion != 1 {
		t.Fatalf("body envelope = %+v", body)
	}
	if body.Events != 18 {
		t.Fatalf("events = %d, want 18", body.Events)
	}
	found := false
	for _, r := range body.Rules {
		if r.Anchor == "HW" && r.Target == "SW" {
			found = true
			// Every one of the 8 hardware events is followed by an OS crash
			// six hours later on the same node.
			if r.Support != 8 || r.Anchors != 8 || r.Confidence != 1 {
				t.Fatalf("HW→SW rule = %+v", r)
			}
		}
	}
	if !found {
		t.Fatalf("HW→SW rule missing from %+v", body.Rules)
	}

	resp2 := getJSON(t, url, http.StatusOK, nil)
	if resp2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second query X-Cache = %q, want HIT", resp2.Header.Get("X-Cache"))
	}

	// Unmaintained windows, unknown systems and malformed thresholds fail
	// loudly before any compute.
	getJSON(t, ts.URL+"/v1/correlations?window=36h", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/correlations?system=9", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/correlations?min_support=0", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/correlations?min_confidence=2", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/correlations?bogus=1", http.StatusBadRequest, nil)
}

// TestLiveCorrelationsReflectAppend is the freshness acceptance: an event
// batch POSTed to /v1/events must be reflected in the very next
// /v1/correlations answer — new dataset version, new counts — with no
// stale-cache leakage across versions.
func TestLiveCorrelationsReflectAppend(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	url := ts.URL + "/v1/correlations?window=week&scope=node&min_support=1&min_confidence=0.01"
	var before correlationsBody
	getJSON(t, url, http.StatusOK, &before)

	// A fresh HW→SW pair on node 1, 30 minutes apart, just after the boot
	// period. One batch, so the store advances exactly one version.
	body := fmt.Sprintf(`{"events":[
		{"system":1,"node":1,"time":%q,"category":"HW","hw":"CPU"},
		{"system":1,"node":1,"time":%q,"category":"SW","sw":"OS"}]}`,
		day(100).Format("2006-01-02T15:04:05Z"), day(100).Add(30*time.Minute).Format("2006-01-02T15:04:05Z"))
	resp, rbody := postEvents(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST events = %d; body: %s", resp.StatusCode, rbody)
	}

	var after correlationsBody
	resp2 := getJSON(t, url, http.StatusOK, &after)
	if after.DatasetVersion != before.DatasetVersion+1 {
		t.Fatalf("dataset version after append = %d, want %d", after.DatasetVersion, before.DatasetVersion+1)
	}
	if got := resp2.Header.Get("X-Dataset-Version"); got != fmt.Sprint(after.DatasetVersion) {
		t.Fatalf("X-Dataset-Version = %q, want %d", got, after.DatasetVersion)
	}
	if after.Events != before.Events+2 {
		t.Fatalf("events after append = %d, want %d", after.Events, before.Events+2)
	}
	support := func(b correlationsBody, anchor, target string) int64 {
		for _, r := range b.Rules {
			if r.Anchor == anchor && r.Target == target {
				return r.Support
			}
		}
		return 0
	}
	if got, want := support(after, "HW", "SW"), support(before, "HW", "SW")+1; got != want {
		t.Fatalf("HW→SW support after append = %d, want %d", got, want)
	}
}

// TestAnomaliesEndpoint pins the anomaly ranking over testDS: node 0 holds
// 16 of the 18 failures, so it must rank first, scores must descend, and
// parameter validation must fail loudly.
func TestAnomaliesEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	var body anomaliesBody
	resp := getJSON(t, ts.URL+"/v1/anomalies?k=3", http.StatusOK, &body)
	if got := resp.Header.Get("X-Dataset-Version"); got != "1" {
		t.Fatalf("X-Dataset-Version = %q, want 1", got)
	}
	if body.K != 3 || len(body.Anomalies) == 0 || len(body.Anomalies) > 3 {
		t.Fatalf("anomalies body = %+v", body)
	}
	if body.Anomalies[0].Node != 0 || body.Anomalies[0].Events != 16 {
		t.Fatalf("top anomaly = %+v, want node 0 with 16 events", body.Anomalies[0])
	}
	for i := 1; i < len(body.Anomalies); i++ {
		if body.Anomalies[i].Score > body.Anomalies[i-1].Score {
			t.Fatalf("anomaly scores not descending: %+v", body.Anomalies)
		}
	}
	resp2 := getJSON(t, ts.URL+"/v1/anomalies?k=3", http.StatusOK, nil)
	if resp2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second query X-Cache = %q, want HIT", resp2.Header.Get("X-Cache"))
	}

	getJSON(t, ts.URL+"/v1/anomalies?k=0", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/anomalies?system=9", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/anomalies?bogus=1", http.StatusBadRequest, nil)
}

// TestAnomaliesLayoutOutOfRange pins that layout rows naming nodes outside
// [0, Nodes) — which trace.ReadLayout accepts — are left out of every
// vicinity instead of crashing the read. On one store and on a 3-shard
// fleet, /v1/anomalies answers 200 without X-Partial, byte-identical to a
// twin whose layouts never had the stray rows, and /readyz stays 200.
func TestAnomaliesLayoutOutOfRange(t *testing.T) {
	stray := func(ds *trace.Dataset) *trace.Dataset {
		for id, lay := range ds.Layouts {
			info, _ := ds.System(id)
			_ = lay.SetPlace(info.Nodes, layout.Place{Rack: 0, Position: 1})
			_ = lay.SetPlace(-1, layout.Place{Rack: 1, Position: 2})
		}
		return ds
	}
	serve := func(cfg Config) *httptest.Server {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	now := func() time.Time { return day(100) }
	quiet := func(string, ...any) {}
	for _, c := range []struct {
		name        string
		stray, twin Config
		queries     []string
	}{
		{
			"single",
			Config{Dataset: stray(testDS()), Window: trace.Day, Now: now},
			Config{Dataset: testDS(), Window: trace.Day, Now: now},
			[]string{"/v1/anomalies", "/v1/anomalies?system=1&k=2"},
		},
		{
			"3-shards",
			Config{Dataset: stray(fleetDS()), Window: trace.Day, Now: now, Shards: 3, Logf: quiet},
			Config{Dataset: fleetDS(), Window: trace.Day, Now: now, Shards: 3, Logf: quiet},
			[]string{"/v1/anomalies", "/v1/anomalies?system=4&k=3", "/v1/anomalies?k=7"},
		},
	} {
		ts, twin := serve(c.stray), serve(c.twin)
		for _, q := range c.queries {
			resp, body := getRaw(t, ts.URL+q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s = %d; body: %s", c.name, q, resp.StatusCode, body)
			}
			if p := resp.Header.Get("X-Partial"); p != "" {
				t.Fatalf("%s %s: X-Partial = %q on a healthy fleet", c.name, q, p)
			}
			_, twinBody := getRaw(t, twin.URL+q)
			if !bytes.Equal(body, twinBody) {
				t.Fatalf("%s %s: stray layout rows changed the answer:\n%s\n%s", c.name, q, body, twinBody)
			}
		}
		if resp, body := getRaw(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: readyz = %d after anomalies reads; body: %s", c.name, resp.StatusCode, body)
		}
	}
}

// TestCorrelationsScatterMatchesSingle pins the scatter-gather merge
// identity through HTTP: a 3-shard fleet's /v1/correlations and
// /v1/anomalies bodies must be byte-identical to a single-store server over
// the same dataset — MergeRuleCounts and the top-k anomaly merge are exact,
// not approximate.
func TestCorrelationsScatterMatchesSingle(t *testing.T) {
	_, sharded := newShardedServer(t, "")
	singleSrv, err := New(Config{Dataset: fleetDS(), Window: trace.Day, Now: func() time.Time { return day(100) }})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(singleSrv.Handler())
	defer single.Close()

	for _, q := range []string{
		"/v1/correlations?window=week&scope=node&min_support=1&min_confidence=0.01",
		"/v1/correlations?window=day&scope=system&min_support=1&min_confidence=0.01",
		"/v1/correlations?window=week&scope=rack&system=4",
		"/v1/anomalies?k=7",
		"/v1/anomalies?system=2&k=3",
	} {
		respA, bodyA := getRaw(t, sharded.URL+q)
		respB, bodyB := getRaw(t, single.URL+q)
		if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d vs %d; bodies %s %s", q, respA.StatusCode, respB.StatusCode, bodyA, bodyB)
		}
		if respA.Header.Get("X-Partial") != "" {
			t.Fatalf("%s: healthy fleet answered partial", q)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Fatalf("%s: sharded body differs from single:\n%s\n%s", q, bodyA, bodyB)
		}
	}
}

// TestCorrelationsPartialOnShardKill is the chaos-gate acceptance: with one
// shard killed, /v1/correlations still answers 200 with X-Partial: true,
// and the surviving shards' rules are byte-equal to an uninterrupted twin
// serving exactly the surviving systems.
func TestCorrelationsPartialOnShardKill(t *testing.T) {
	srv, ts := newShardedServer(t, "")
	if err := srv.KillShard(0); err != nil {
		t.Fatal(err)
	}
	// The twin serves only the systems the dead shard did not own.
	var surviving []int
	for i := 1; i < srv.ShardCount(); i++ {
		for _, sys := range srv.fabric.shards[i].systems {
			surviving = append(surviving, sys.ID)
		}
	}
	twinSrv, err := New(Config{Dataset: fleetDS().FilterSystems(surviving...), Window: trace.Day, Now: func() time.Time { return day(100) }})
	if err != nil {
		t.Fatal(err)
	}
	twin := httptest.NewServer(twinSrv.Handler())
	defer twin.Close()

	for _, q := range []string{
		"/v1/correlations?window=week&scope=node&min_support=1&min_confidence=0.01",
		"/v1/anomalies?k=5",
	} {
		resp, body := getRaw(t, ts.URL+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s with dead shard = %d; body: %s", q, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Partial") != "true" {
			t.Fatalf("%s with dead shard: X-Partial = %q, want true", q, resp.Header.Get("X-Partial"))
		}
		twinResp, twinBody := getRaw(t, twin.URL+q)
		if twinResp.StatusCode != http.StatusOK {
			t.Fatalf("twin %s = %d", q, twinResp.StatusCode)
		}
		if !bytes.Equal(body, twinBody) {
			t.Fatalf("%s: partial body differs from surviving-systems twin:\n%s\n%s", q, body, twinBody)
		}
	}

	// A query scoped to a dead shard's system is unavailable, not partial.
	deadSys := srv.fabric.shards[0].systems[0].ID
	resp, _ := getRaw(t, ts.URL+fmt.Sprintf("/v1/correlations?system=%d", deadSys))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("correlations for dead shard's system = %d, want 503", resp.StatusCode)
	}
}
