package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// fleetDS builds a fresh 6-system, 2-group dataset (4 nodes each) with
// per-system failure histories. Every caller gets its own instance —
// store.New takes ownership of the dataset it is given, so a server and
// its twin must never share one.
func fleetDS() *trace.Dataset {
	var systems []trace.SystemInfo
	var fails []trace.Failure
	layouts := map[int]*layout.Layout{}
	for id := 1; id <= 6; id++ {
		group := trace.Group1
		if id > 3 {
			group = trace.Group2
		}
		systems = append(systems, trace.SystemInfo{
			ID: id, Group: group, Nodes: 4, ProcsPerNode: 4,
			Period: trace.Interval{Start: day(0), End: day(98)},
		})
		lay := layout.New(id)
		for n := 0; n < 4; n++ {
			_ = lay.SetPlace(n, layout.Place{Rack: n / 2, Position: n%2 + 1})
		}
		layouts[id] = lay
		// A history that gives every system real lift-table mass, offset
		// per system so the shards are not trivially symmetric.
		for d := 5 + id; d < 85; d += 10 {
			fails = append(fails,
				trace.Failure{System: id, Node: 0, Time: day(d, 12), Category: trace.Hardware, HW: trace.CPU},
				trace.Failure{System: id, Node: 0, Time: day(d, 18), Category: trace.Software, SW: trace.OS},
			)
		}
		fails = append(fails, trace.Failure{System: id, Node: 2, Time: day(40+id, 12), Category: trace.Network})
	}
	ds := &trace.Dataset{Systems: systems, Failures: fails, Layouts: layouts}
	ds.Sort()
	return ds
}

// newShardedServer builds a 3-shard server over a fresh fleetDS. With a
// non-empty walDir each shard journals under walDir/shard-NNN and gets a
// warm standby tailing that directory.
func newShardedServer(t *testing.T, walDir string) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Dataset: fleetDS(),
		Window:  trace.Day,
		Now:     func() time.Time { return day(100) },
		Shards:  3,
		Logf:    func(string, ...any) {},
	}
	if walDir != "" {
		cfg.ShardWAL = wal.Options{Dir: walDir}
		cfg.Standby = true
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getRaw fetches a URL and returns the response plus its full body.
func getRaw(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// feedFleet posts one batch with two events per system and returns the
// request body used, so a twin can be fed identically.
func feedFleet(t *testing.T, url string) {
	t.Helper()
	var evs []string
	for id := 1; id <= 6; id++ {
		evs = append(evs,
			fmt.Sprintf(`{"system":%d,"node":1,"category":"HW","hw":"CPU"}`, id),
			fmt.Sprintf(`{"system":%d,"node":3,"category":"SW","sw":"OS"}`, id),
		)
	}
	resp, body := postEvents(t, url, `{"events":[`+strings.Join(evs, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST events = %d; body: %s", resp.StatusCode, body)
	}
}

// metricValue extracts one sample value line from Prometheus text output.
func metricValue(t *testing.T, metrics []byte, sample string) (string, bool) {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (.+)$`)
	m := re.FindSubmatch(metrics)
	if m == nil {
		return "", false
	}
	return string(m[1]), true
}

// TestKillOneShardPartialThenPromotionIdentity is the failover acceptance
// test: under shard death, cross-system queries keep answering with
// X-Partial: true and exactly the surviving shards' results; after the warm
// standby is promoted, /v1/snapshot and pinned /v1/risk/top are
// byte-identical to an uninterrupted twin that never lost a shard, and the
// replication-lag metric is back to zero.
func TestKillOneShardPartialThenPromotionIdentity(t *testing.T) {
	srv, ts := newShardedServer(t, t.TempDir())
	twinSrv, twin := newShardedServer(t, t.TempDir())
	if srv.ShardCount() != 3 || twinSrv.ShardCount() != 3 {
		t.Fatalf("shard counts = %d, %d, want 3", srv.ShardCount(), twinSrv.ShardCount())
	}

	// Identical feeds; then make the appends durable and drain both fleets'
	// standbys so every replica is warm.
	feedFleet(t, ts.URL)
	feedFleet(t, twin.URL)
	srv.fabric.syncAll()
	twinSrv.fabric.syncAll()

	// Replication lag is visible before catchup, and zero after.
	lagged := fetchMetrics(t, ts)
	if v, ok := metricValue(t, lagged, `hpcserve_wal_replication_lag_records{shard="0"}`); !ok || v == "0" {
		t.Fatalf("pre-catchup lag for shard 0 = %q, %v, want nonzero", v, ok)
	}
	srv.CatchupStandbys()
	twinSrv.CatchupStandbys()
	caught := fetchMetrics(t, ts)
	for i := 0; i < 3; i++ {
		sample := fmt.Sprintf(`hpcserve_wal_replication_lag_records{shard="%d"}`, i)
		if v, ok := metricValue(t, caught, sample); !ok || v != "0" {
			t.Fatalf("post-catchup %s = %q, %v, want 0", sample, v, ok)
		}
	}

	at := "at=" + day(100).UTC().Format(time.RFC3339)
	pinned := at + "&k=24"

	// Healthy baseline: the fleets answer identically, not partially.
	resp, before := getRaw(t, ts.URL+"/v1/risk/top?"+pinned)
	if resp.Header.Get("X-Partial") != "" {
		t.Fatal("healthy fleet answered partially")
	}
	_, twinBefore := getRaw(t, twin.URL+"/v1/risk/top?"+pinned)
	if !bytes.Equal(before, twinBefore) {
		t.Fatalf("healthy fleets diverge:\n%s\n%s", before, twinBefore)
	}

	// Kill the shard owning system 1.
	victim := srv.fabric.owner[1]
	if err := srv.KillShard(victim); err != nil {
		t.Fatal(err)
	}

	// Per-system queries to the dead shard's systems fail loudly...
	resp, _ = getRaw(t, ts.URL+"/v1/risk/top?system=1&k=4")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead-shard per-system query = %d, want 503", resp.StatusCode)
	}
	// ...while cross-system queries answer partially: X-Partial set, the
	// version vector names the dead shard, and every surviving system's
	// scores byte-match the twin's (queried per system on both sides).
	resp, _ = getRaw(t, ts.URL+"/v1/risk/top?"+pinned)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Partial") != "true" {
		t.Fatalf("partial top = %d, X-Partial %q", resp.StatusCode, resp.Header.Get("X-Partial"))
	}
	if vv := resp.Header.Get("X-Shard-Versions"); !strings.Contains(vv, fmt.Sprintf("%d:down", victim)) {
		t.Fatalf("X-Shard-Versions = %q, want shard %d down", vv, victim)
	}
	for id := 1; id <= 6; id++ {
		if srv.fabric.owner[id] == victim {
			continue
		}
		q := fmt.Sprintf("/v1/risk/top?system=%d&k=4&"+at, id)
		sresp, got := getRaw(t, ts.URL+q)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("surviving system %d = %d", id, sresp.StatusCode)
		}
		_, want := getRaw(t, twin.URL+q)
		if !bytes.Equal(got, want) {
			t.Fatalf("surviving system %d diverged from twin:\n%s\n%s", id, got, want)
		}
	}
	// The snapshot endpoint follows the same partial contract.
	resp, _ = getRaw(t, ts.URL+"/v1/snapshot")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Partial") != "true" {
		t.Fatalf("partial snapshot = %d, X-Partial %q", resp.StatusCode, resp.Header.Get("X-Partial"))
	}
	// /readyz reports the degraded fleet; /healthz stays alive.
	resp, _ = getRaw(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz = %d, want 503", resp.StatusCode)
	}
	resp, _ = getRaw(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz = %d, want 200", resp.StatusCode)
	}

	// Promote the warm standby and the fleet fully recovers: X-Partial
	// clears, and both pinned risk and the canonical engine snapshot are
	// byte-identical to the uninterrupted twin.
	if err := srv.PromoteShard(victim); err != nil {
		t.Fatalf("PromoteShard: %v", err)
	}
	resp, after := getRaw(t, ts.URL+"/v1/risk/top?"+pinned)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Partial") != "" {
		t.Fatalf("post-promotion top = %d, X-Partial %q", resp.StatusCode, resp.Header.Get("X-Partial"))
	}
	_, twinAfter := getRaw(t, twin.URL+"/v1/risk/top?"+pinned)
	if !bytes.Equal(after, twinAfter) {
		t.Fatalf("promoted fleet diverged on pinned top:\n%s\n%s", after, twinAfter)
	}
	_, snapA := getRaw(t, ts.URL+"/v1/snapshot")
	_, snapB := getRaw(t, twin.URL+"/v1/snapshot")
	if !bytes.Equal(snapA, snapB) {
		t.Fatalf("promoted fleet snapshot diverged:\n%s\n%s", snapA, snapB)
	}
	resp, _ = getRaw(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered readyz = %d, want 200", resp.StatusCode)
	}

	// The promoted shard serves per-system queries again, identically.
	q := "/v1/risk/top?system=1&k=4&" + at
	_, got := getRaw(t, ts.URL+q)
	_, want := getRaw(t, twin.URL+q)
	if !bytes.Equal(got, want) {
		t.Fatalf("promoted shard diverged on its own system:\n%s\n%s", got, want)
	}

	// Failover is visible in the metrics, and lag is back to zero (the
	// promoted shard has no standby; the survivors are drained).
	m := fetchMetrics(t, ts)
	if v, ok := metricValue(t, m, fmt.Sprintf(`hpcserve_shard_failovers_total{shard="%d"}`, victim)); !ok || v != "1" {
		t.Fatalf("failovers metric = %q, %v, want 1", v, ok)
	}
	for i := 0; i < 3; i++ {
		sample := fmt.Sprintf(`hpcserve_wal_replication_lag_records{shard="%d"}`, i)
		if v, ok := metricValue(t, m, sample); !ok || v != "0" {
			t.Fatalf("post-failover %s = %q, %v, want 0", sample, v, ok)
		}
		healthy := fmt.Sprintf(`hpcserve_shard_healthy{shard="%d",state="ready"}`, i)
		if v, ok := metricValue(t, m, healthy); !ok || v != "1" {
			t.Fatalf("%s = %q, %v, want 1", healthy, v, ok)
		}
	}
	if v, ok := metricValue(t, m, "hpcserve_partial_responses_total"); !ok || v == "0" {
		t.Fatalf("partial_responses_total = %q, %v, want nonzero", v, ok)
	}
}

// TestCondProbScatterPartialAndMergeIdentity pins the scatter-gather
// condprob path: healthy answers are byte-identical to an unsharded server
// over the same dataset, and with a shard down the group query still
// answers, flagged partial.
func TestCondProbScatterPartialAndMergeIdentity(t *testing.T) {
	srv, ts := newShardedServer(t, "")
	single, err := New(Config{
		Dataset: fleetDS(),
		Window:  trace.Day,
		Now:     func() time.Time { return day(100) },
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()

	queries := []string{
		"/v1/condprob?anchor=HW&target=SW&window=24h&scope=node",
		"/v1/condprob?anchor=HW&window=24h&scope=system&group=1",
		"/v1/condprob?window=168h&scope=rack&group=2",
	}
	for _, q := range queries {
		resp, got := getRaw(t, ts.URL+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", q, resp.StatusCode)
		}
		if resp.Header.Get("X-Partial") != "" {
			t.Fatalf("%s partial on a healthy fleet", q)
		}
		_, want := getRaw(t, sts.URL+q)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: sharded != unsharded:\n%s\n%s", q, got, want)
		}
	}

	// Kill one shard: fleet-scope condprob still answers, flagged partial.
	if err := srv.KillShard(srv.fabric.owner[2]); err != nil {
		t.Fatal(err)
	}
	resp, _ := getRaw(t, ts.URL+queries[0])
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Partial") != "true" {
		t.Fatalf("degraded condprob = %d, X-Partial %q", resp.StatusCode, resp.Header.Get("X-Partial"))
	}
}

// TestSupervisorAutoFailover drives the supervision loop deterministically:
// a stalled shard misses its heartbeat deadline, the supervisor expires it,
// and the next tick promotes the warm standby without operator action.
func TestSupervisorAutoFailover(t *testing.T) {
	clock := &fakeClock{t: day(100)}
	cfg := Config{
		Dataset:           fleetDS(),
		Window:            trace.Day,
		Now:               clock.Now,
		Shards:            2,
		ShardWAL:          wal.Options{Dir: t.TempDir()},
		Standby:           true,
		ShardDeadline:     20 * time.Millisecond,
		HeartbeatDeadline: time.Second,
		Logf:              func(string, ...any) {},
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	feedFleet(t, ts.URL)
	srv.fabric.syncAll()
	srv.CatchupStandbys()

	// A healthy tick beats both shards; nothing changes.
	srv.SuperviseTick(context.Background())
	if rows := srv.fabric.status().shards; rows[0].State != "ready" || rows[1].State != "ready" {
		t.Fatalf("healthy tick changed states: %+v", rows)
	}

	// Shard 0 stalls far past the per-call deadline: its heartbeat fails,
	// and once the fake clock passes the heartbeat deadline the next tick
	// expires it and immediately promotes the warm standby.
	if err := srv.StallShard(0, time.Minute); err != nil {
		t.Fatal(err)
	}
	srv.SuperviseTick(context.Background()) // heartbeat fails; no beat recorded
	clock.Advance(2 * time.Second)
	srv.SuperviseTick(context.Background()) // expire + auto-promote
	st := srv.fabric.status()
	ready, rows := st.total.ready, st.shards
	if rows[0].State != "ready" {
		t.Fatalf("shard 0 after auto-failover = %+v", rows[0])
	}
	if !ready {
		t.Fatalf("fleet not ready after auto-failover: %+v", rows)
	}
	if got := srv.fabric.shards[0].failovers.Load(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	// The promoted shard serves (the stall died with the old leader).
	resp, _ := getRaw(t, ts.URL+"/v1/risk/top?k=24")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Partial") != "" {
		t.Fatalf("post-auto-failover top = %d, X-Partial %q", resp.StatusCode, resp.Header.Get("X-Partial"))
	}
}

// TestReadyzWarmup pins satellite readiness semantics for the standby
// warm-up phase: a sharded-with-standby server is not-ready until the first
// full catchup, while /healthz answers 200 throughout.
func TestReadyzWarmup(t *testing.T) {
	srv, ts := newShardedServer(t, t.TempDir())
	resp, body := getRaw(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warming readyz = %d, want 503; body %s", resp.StatusCode, body)
	}
	var warming struct {
		Shards []shardRow `json:"shards"`
	}
	mustDecode(t, body, &warming)
	if !slices.ContainsFunc(warming.Shards, func(r shardRow) bool { return r.Standby == "warming" }) {
		t.Fatalf("warming readyz body = %s", body)
	}
	resp, _ = getRaw(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming healthz = %d, want 200", resp.StatusCode)
	}
	srv.CatchupStandbys()
	resp, body = getRaw(t, ts.URL+"/readyz")
	var warm struct {
		Status string `json:"status"`
	}
	mustDecode(t, body, &warm)
	if resp.StatusCode != http.StatusOK || warm.Status != "ready" {
		t.Fatalf("warm readyz = %d, body %s", resp.StatusCode, body)
	}
	// An unsharded, standby-less server is ready from boot — the legacy
	// contract is unchanged.
	plain, err := New(Config{
		Dataset: fleetDS(),
		Window:  trace.Day,
		Now:     func() time.Time { return day(100) },
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	resp, _ = getRaw(t, pts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy readyz = %d, want 200", resp.StatusCode)
	}
}
