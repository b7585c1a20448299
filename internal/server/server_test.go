package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/trace"
)

func day(d int, h ...int) time.Time {
	t := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d)
	if len(h) > 0 {
		t = t.Add(time.Duration(h[0]) * time.Hour)
	}
	return t
}

// testDS builds a 4-node single-system dataset over 98 days whose history
// makes hardware failures strongly predictive of follow-ups, so the lift
// table has real mass to serve.
func testDS() *trace.Dataset {
	lay := layout.New(1)
	for n := 0; n < 4; n++ {
		_ = lay.SetPlace(n, layout.Place{Rack: n / 2, Position: n%2 + 1})
	}
	var fails []trace.Failure
	for d := 5; d < 85; d += 10 {
		fails = append(fails,
			trace.Failure{System: 1, Node: 0, Time: day(d, 12), Category: trace.Hardware, HW: trace.CPU},
			trace.Failure{System: 1, Node: 0, Time: day(d, 18), Category: trace.Software, SW: trace.OS},
		)
	}
	fails = append(fails,
		trace.Failure{System: 1, Node: 1, Time: day(30, 12), Category: trace.Network},
		trace.Failure{System: 1, Node: 2, Time: day(55, 12), Category: trace.Software, SW: trace.OS},
	)
	ds := &trace.Dataset{
		Systems: []trace.SystemInfo{{
			ID: 1, Group: trace.Group1, Nodes: 4, ProcsPerNode: 4,
			Period: trace.Interval{Start: day(0), End: day(98)},
		}},
		Failures: fails,
		Layouts:  map[int]*layout.Layout{1: lay},
	}
	ds.Sort()
	return ds
}

// fakeClock is a settable clock shared with the server under test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestServer builds a server over testDS with a day window and a fake
// clock starting just past the dataset period.
func newTestServer(t *testing.T, mutate func(*Config)) (*httptest.Server, *fakeClock) {
	t.Helper()
	clock := &fakeClock{t: day(100)}
	cfg := Config{Dataset: testDS(), Window: trace.Day, Now: clock.Now}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, clock
}

// getJSON decodes a GET response, asserting the status code.
func getJSON(t *testing.T, url string, wantCode int, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d; body: %s", url, resp.StatusCode, wantCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v; body: %s", url, err, body)
		}
	}
	return resp
}

func postEvents(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/events", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	var out map[string]any
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &out)
	if out["status"] != "ok" {
		t.Errorf("healthz = %v", out)
	}
}

// TestRiskElevatesThenDecays is the acceptance path: POST a failure event,
// see the node's risk jump above base immediately, and watch it decay back
// to base once the window expires.
func TestRiskElevatesThenDecays(t *testing.T) {
	ts, clock := newTestServer(t, nil)

	var before scoreJSON
	getJSON(t, ts.URL+"/v1/risk/0", http.StatusOK, &before)
	if before.Risk != before.Base || len(before.Contributions) != 0 {
		t.Fatalf("quiet node not at base: %+v", before)
	}

	resp, body := postEvents(t, ts.URL, `{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST events = %d; body: %s", resp.StatusCode, body)
	}

	var fresh scoreJSON
	getJSON(t, ts.URL+"/v1/risk/0", http.StatusOK, &fresh)
	if fresh.Risk <= fresh.Base {
		t.Fatalf("risk not elevated after event: %+v", fresh)
	}
	if fresh.Factor <= 1 {
		t.Errorf("factor = %v, want > 1", fresh.Factor)
	}
	if len(fresh.Contributions) != 1 || fresh.Contributions[0].Scope != "node" {
		t.Errorf("contributions = %+v", fresh.Contributions)
	}

	// Halfway through the window the risk has partially decayed.
	clock.Advance(trace.Day / 2)
	var mid scoreJSON
	getJSON(t, ts.URL+"/v1/risk/0", http.StatusOK, &mid)
	if !(mid.Risk < fresh.Risk && mid.Risk > mid.Base) {
		t.Errorf("half-window risk %v not between %v and base %v", mid.Risk, fresh.Risk, mid.Base)
	}

	// Past the window the node is back at base rate.
	clock.Advance(trace.Day)
	var after scoreJSON
	getJSON(t, ts.URL+"/v1/risk/0", http.StatusOK, &after)
	if after.Risk != after.Base || len(after.Contributions) != 0 {
		t.Errorf("risk did not decay to base: %+v", after)
	}
}

func TestRiskTop(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	postEvents(t, ts.URL, `{"events":[{"system":1,"node":2,"category":"HW","hw":"CPU"}]}`)
	var out struct {
		Scores []scoreJSON `json:"scores"`
	}
	getJSON(t, ts.URL+"/v1/risk/top?k=2", http.StatusOK, &out)
	if len(out.Scores) != 2 {
		t.Fatalf("top returned %d scores, want 2", len(out.Scores))
	}
	if out.Scores[0].Node != 2 {
		t.Errorf("top node = %d, want 2", out.Scores[0].Node)
	}
	if out.Scores[0].Risk < out.Scores[1].Risk {
		t.Errorf("top scores not descending")
	}
}

func TestRiskBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	for _, path := range []string{
		"/v1/risk/notanumber",
		"/v1/risk/99",          // node out of range -> 404
		"/v1/risk/0?system=42", // unknown system
		"/v1/risk/0?bogus=1",   // unknown parameter
		"/v1/risk/top?k=0",     // k out of range
		"/v1/risk/top?k=1&k=2", // repeated parameter
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 400/404", path, resp.StatusCode)
		}
	}
}

func TestEventsValidation(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	// Mixed batch: one good, one bad category, one unknown system.
	resp, body := postEvents(t, ts.URL, `{"events":[
		{"system":1,"node":1,"category":"NET"},
		{"system":1,"node":0,"category":"NOPE"},
		{"system":9,"node":0,"category":"HW"}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch = %d; body: %s", resp.StatusCode, body)
	}
	var out struct {
		Accepted int `json:"accepted"`
		Rejected []struct {
			Index int `json:"index"`
		} `json:"rejected"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 1 || len(out.Rejected) != 2 {
		t.Errorf("accepted=%d rejected=%v", out.Accepted, out.Rejected)
	}

	// Entirely bad batches are 400s.
	for _, body := range []string{
		`{"events":[]}`,
		`{"events":[{"system":1,"node":0,"category":"NOPE"}]}`,
		`not json`,
		`{"unknown_field":1}`,
	} {
		resp, _ := postEvents(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestCondProbCacheHitRate is the second acceptance path: repeated
// identical queries hit the cache, and the metrics endpoint reports a
// positive hit rate.
func TestCondProbCacheHitRate(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	url := ts.URL + "/v1/condprob?anchor=HW&window=week&scope=node"

	var first condProbJSON
	resp := getJSON(t, url, http.StatusOK, &first)
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("first query X-Cache = %q, want MISS", got)
	}
	if first.Conditional.Trials == 0 {
		t.Errorf("conditional has no trials: %+v", first)
	}
	if first.Factor <= 1 {
		t.Errorf("HW lift factor = %v, want > 1 on the clustered history", first.Factor)
	}

	// Same query, different parameter order and case: still a cache hit.
	var second condProbJSON
	resp = getJSON(t, ts.URL+"/v1/condprob?scope=NODE&window=week&anchor=hw", http.StatusOK, &second)
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("second query X-Cache = %q, want HIT", got)
	}
	if first != second {
		t.Errorf("cached result differs: %+v vs %+v", first, second)
	}

	metrics := string(fetchMetrics(t, ts))
	if !strings.Contains(metrics, "hpcserve_condprob_cache_hits_total 1") {
		t.Errorf("metrics missing cache hit:\n%s", metrics)
	}
	if strings.Contains(metrics, "hpcserve_condprob_cache_hit_rate 0\n") {
		t.Errorf("cache hit rate still zero:\n%s", metrics)
	}
}

func TestCondProbBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	for _, q := range []string{
		"anchor=NOPE", "window=never", "scope=galaxy", "group=7",
		"anchor=HUMAN/whoops", "bogus=1", "anchor=HW&anchor=SW",
	} {
		resp, err := http.Get(ts.URL + "/v1/condprob?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("condprob?%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestCondProbTimeout(t *testing.T) {
	ts, _ := newTestServer(t, func(cfg *Config) {
		cfg.RequestTimeout = time.Nanosecond
	})
	resp, err := http.Get(ts.URL + "/v1/condprob?anchor=HW")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("timed-out condprob = %d, want 503", resp.StatusCode)
	}
}

func fetchMetrics(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestMetricsExposition(t *testing.T) {
	ts, clock := newTestServer(t, nil)
	postEvents(t, ts.URL, `{"events":[{"system":1,"node":0,"category":"HW"}]}`)
	clock.Advance(time.Minute)
	getJSON(t, ts.URL+"/v1/risk/0", http.StatusOK, nil)
	body := string(fetchMetrics(t, ts))
	for _, want := range []string{
		`hpcserve_requests_total{route="/v1/events",code="200"} 1`,
		`hpcserve_requests_total{route="/v1/risk/{node}",code="200"} 1`,
		`hpcserve_request_seconds_count{route="/v1/events"} 1`,
		"hpcserve_events_accepted_total 1",
		"hpcserve_engine_observed_events_total 1",
		"hpcserve_engine_active_events 1",
		"hpcserve_engine_lag_seconds 60",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestSingleflightDedup pins the dedup contract at the cache layer:
// concurrent identical queries run the compute function exactly once.
func TestSingleflightDedup(t *testing.T) {
	c := newResultCache(16)
	var computes atomic.Int32
	release := make(chan struct{})
	leaderIn := make(chan struct{})

	var wg sync.WaitGroup
	outcomes := make(chan outcome, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, oc, err := c.Do(context.Background(), "k", func() (any, error) {
			computes.Add(1)
			close(leaderIn)
			<-release
			return "v", nil
		})
		if err != nil || v != "v" {
			t.Errorf("leader got %v, %v", v, err)
		}
		outcomes <- oc
	}()
	<-leaderIn // the computation is in flight; followers must join it
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, oc, err := c.Do(context.Background(), "k", func() (any, error) {
				computes.Add(1)
				return "v", nil
			})
			if err != nil || v != "v" {
				t.Errorf("follower got %v, %v", v, err)
			}
			outcomes <- oc
		}()
	}
	// Give the followers a moment to join the in-flight call, then let the
	// leader finish. Late joiners become cache hits, never recomputes.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	close(outcomes)

	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	counts := map[outcome]int{}
	for oc := range outcomes {
		counts[oc]++
	}
	if counts[outcomeMiss] != 1 {
		t.Errorf("outcomes = %v, want exactly one miss", counts)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newResultCache(16)
	boom := fmt.Errorf("boom")
	if _, _, err := c.Do(context.Background(), "k", func() (any, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	v, oc, err := c.Do(context.Background(), "k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" || oc != outcomeMiss {
		t.Errorf("retry after error: %v, %v, %v (errors must not be cached)", v, oc, err)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newResultCache(2)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(context.Background(), key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	// k0 was evicted; k2 is still present.
	if _, oc, _ := c.Do(context.Background(), "k2", func() (any, error) { return nil, nil }); oc != outcomeHit {
		t.Errorf("k2 outcome = %v, want hit", oc)
	}
	if _, oc, _ := c.Do(context.Background(), "k0", func() (any, error) { return 0, nil }); oc != outcomeMiss {
		t.Errorf("k0 outcome = %v, want miss (evicted)", oc)
	}
}

// TestSingleflightWaiterOwnDeadline: a caller waiting on another caller's
// computation returns when its own context ends, not when the leader does,
// and the leader's result is still cached for the callers after it.
func TestSingleflightWaiterOwnDeadline(t *testing.T) {
	c := newResultCache(16)
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(context.Background(), "k", func() (any, error) {
			close(leaderIn)
			<-release
			return "v", nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	type result struct {
		oc  outcome
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		_, oc, err := c.Do(ctx, "k", func() (any, error) { return "recomputed", nil })
		waiter <- result{oc, err}
	}()
	select {
	case res := <-waiter:
		if res.oc != outcomeShared || !errors.Is(res.err, context.DeadlineExceeded) {
			t.Errorf("waiter = %v, %v; want shared, deadline exceeded", res.oc, res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked on the leader 5s past its own 50ms deadline")
	}
	close(release)
	<-leaderDone
	if v, oc, err := c.Do(context.Background(), "k", func() (any, error) { return "recomputed", nil }); v != "v" || oc != outcomeHit || err != nil {
		t.Errorf("after the leader: %v, %v, %v; want the leader's value as a hit", v, oc, err)
	}
}

// TestServeGracefulShutdownNoLeak starts a real listener, serves a request,
// cancels the context, and verifies ServeListener returns cleanly without
// leaking goroutines (the maintenance ticker, the serve loop, per-conn
// handlers).
func TestServeGracefulShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- ServeListener(ctx, ln, Config{Dataset: testDS(), Window: trace.Day})
	}()

	url := "http://" + ln.Addr().String()
	// Poll until the server answers (the goroutine needs a moment to build
	// the lift table and start accepting).
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeListener returned %v, want nil after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeListener did not return after cancel")
	}

	// Idle HTTP client keep-alives and runtime helpers settle quickly;
	// allow a small slack while insisting the server's own goroutines died.
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShutdownClosesUnusedConns: a connection that never sent a byte does
// not hold shutdown for its grace period, while a connection caught midway
// through its request headers is still served a whole response.
func TestShutdownClosesUnusedConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- ServeListener(ctx, ln, Config{Dataset: testDS(), Window: trace.Day, Logf: func(string, ...any) {}})
	}()
	addr := ln.Addr().String()
	dial := func() net.Conn {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	// Dialed before the readiness poll, so the server has accepted it (and
	// seen its StateNew) by the time /healthz answers.
	unused := dial()
	partial := dial()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := partial.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the server read the partial headers

	start := time.Now()
	cancel()
	time.Sleep(50 * time.Millisecond) // shutdown has begun
	if _, err := partial.Write([]byte("\r\n")); err != nil {
		t.Fatal(err)
	}
	partial.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(partial), nil)
	if err != nil {
		t.Fatalf("partial request cut off by shutdown: %v", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || int64(len(got)) != resp.ContentLength {
		t.Fatalf("partial request = %d %q (%v), want a whole 200", resp.StatusCode, got, err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeListener returned %v, want nil", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("shutdown took %v with an unused connection open, want < 1s", d)
		}
	case <-time.After(time.Second):
		t.Fatal("ServeListener still shutting down 1s after cancel: the unused connection holds it")
	}
	unused.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := unused.Read(make([]byte, 1)); err == nil {
		t.Fatalf("unused connection still open after shutdown (read %d bytes)", n)
	}
}

// TestShutdownAppliesLateEventsPost: a POST /v1/events whose headers
// complete just after shutdown began is served under a live context and
// applied, not failed by the cancelled serve context.
func TestShutdownAppliesLateEventsPost(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- ServeListener(ctx, ln, Config{Dataset: testDS(), Window: trace.Day, Logf: func(string, ...any) {}})
	}()
	addr := ln.Addr().String()
	partial, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	body := `{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`
	head := fmt.Sprintf("POST /v1/events HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	if _, err := partial.Write([]byte(head)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the server read the partial headers

	cancel()
	time.Sleep(50 * time.Millisecond) // shutdown has begun
	if _, err := partial.Write([]byte("\r\n" + body)); err != nil {
		t.Fatal(err)
	}
	partial.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(partial), nil)
	if err != nil {
		t.Fatalf("late POST cut off by shutdown: %v", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out eventsResponse
	if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(got, &out) != nil || out.Accepted != 1 {
		t.Fatalf("late POST = %d %s (%v), want 200 with accepted 1", resp.StatusCode, got, err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeListener returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeListener did not return after cancel")
	}
}

func TestServeListenerBadConfig(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ServeListener(context.Background(), ln, Config{}); err == nil {
		t.Fatal("nil dataset should fail")
	}
	// The listener must have been closed on the error path.
	if _, err := ln.Accept(); err == nil {
		t.Error("listener still open after config error")
	}
}

func BenchmarkCondProbCached(b *testing.B) {
	s, err := New(Config{Dataset: testDS(), Window: trace.Day})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/condprob?anchor=HW&window=week"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func BenchmarkRiskEndpoint(b *testing.B) {
	s, err := New(Config{Dataset: testDS(), Window: trace.Day})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/events", "application/json",
		strings.NewReader(`{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("seeding POST = %d", resp.StatusCode)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(ts.URL + "/v1/risk/0")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
