package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/faultinject"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// newTestServerFull is newTestServer but also returns the *Server for
// white-box pokes (limiters, breaker).
func newTestServerFull(t *testing.T, mutate func(*Config)) (*httptest.Server, *Server, *fakeClock) {
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
	return ts, s, clock
}

// TestSheddingReturns429 fills a route's only slot, then asserts the next
// request is shed with 429 and a Retry-After hint — and admitted again once
// the slot frees.
func TestSheddingReturns429(t *testing.T) {
	ts, s, _ := newTestServerFull(t, func(cfg *Config) {
		cfg.Limits = map[string]RouteLimit{"/v1/risk/top": {Concurrency: 1, Queue: 0}}
	})
	release, ok := s.limits["/v1/risk/top"].admit(context.Background())
	if !ok {
		t.Fatal("could not occupy the only slot")
	}

	resp, err := http.Get(ts.URL + "/v1/risk/top?k=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated route = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	release()
	getJSON(t, ts.URL+"/v1/risk/top?k=1", http.StatusOK, nil)

	metrics := string(fetchMetrics(t, ts))
	if !strings.Contains(metrics, "hpcserve_shed_total 1") {
		t.Errorf("metrics missing shed count:\n%s", metrics)
	}
	if !strings.Contains(metrics, `hpcserve_admission_shed_total{route="/v1/risk/top"} 1`) {
		t.Errorf("metrics missing per-route shed:\n%s", metrics)
	}
}

// TestConcurrencyNeverExceeded hammers a tightly limited route and asserts
// the limiter's high-water mark stayed within the configured bound while
// every request got either a result or a clean 429.
func TestConcurrencyNeverExceeded(t *testing.T) {
	const limit = 3
	ts, s, _ := newTestServerFull(t, func(cfg *Config) {
		cfg.Limits = map[string]RouteLimit{"/v1/risk/top": {Concurrency: limit, Queue: 2}}
	})

	var wg sync.WaitGroup
	var ok200, ok429, other sync.Map
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/risk/top?k=4")
			if err != nil {
				other.Store(i, err.Error())
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Store(i, true)
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					other.Store(i, "429 without Retry-After")
					return
				}
				ok429.Store(i, true)
			default:
				other.Store(i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	other.Range(func(k, v any) bool {
		t.Errorf("request %v: unexpected outcome %v", k, v)
		return true
	})
	count := func(m *sync.Map) int {
		n := 0
		m.Range(func(any, any) bool { n++; return true })
		return n
	}
	if count(&ok200) == 0 {
		t.Error("no request succeeded under load")
	}
	if peak := s.limits["/v1/risk/top"].peak.Load(); peak > limit {
		t.Errorf("peak concurrency %d exceeded limit %d", peak, limit)
	}
	if got := count(&ok200) + count(&ok429); got != 60 {
		t.Errorf("accounted for %d of 60 requests", got)
	}
}

// TestBreakerDegradesToCache opens the circuit and asserts the three
// degraded behaviors: cached answers still flow (with X-Degraded), misses
// are shed 503, and after the cooldown a successful trial closes the
// circuit again.
func TestBreakerDegradesToCache(t *testing.T) {
	ts, s, clock := newTestServerFull(t, nil)
	cached := ts.URL + "/v1/condprob?anchor=HW&window=week"
	uncached := ts.URL + "/v1/condprob?anchor=SW&window=week"

	getJSON(t, cached, http.StatusOK, nil) // prime the cache

	for i := 0; i < 5; i++ {
		s.fabric.shards[0].breaker.report(false)
	}
	if open, _ := s.fabric.shards[0].breaker.snapshot(); !open {
		t.Fatal("breaker not open after threshold failures")
	}

	resp := getJSON(t, cached, http.StatusOK, nil)
	if got := resp.Header.Get("X-Degraded"); got != "cache-only" {
		t.Errorf("cached hit while open: X-Degraded = %q, want cache-only", got)
	}
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("cached hit while open: X-Cache = %q, want HIT", got)
	}

	missResp, err := http.Get(uncached)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, missResp.Body)
	missResp.Body.Close()
	if missResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncached miss while open = %d, want 503", missResp.StatusCode)
	}
	if got := missResp.Header.Get("X-Degraded"); got != "circuit-open" {
		t.Errorf("X-Degraded = %q, want circuit-open", got)
	}
	if missResp.Header.Get("Retry-After") == "" {
		t.Error("circuit-open shed missing Retry-After")
	}

	metrics := string(fetchMetrics(t, ts))
	if !strings.Contains(metrics, "hpcserve_breaker_open 1") {
		t.Errorf("metrics missing open breaker:\n%s", metrics)
	}

	// Past the cooldown the next miss is the half-open trial; it succeeds
	// and closes the circuit.
	clock.Advance(11 * time.Second)
	getJSON(t, uncached, http.StatusOK, nil)
	if open, _ := s.fabric.shards[0].breaker.snapshot(); open {
		t.Error("breaker still open after successful trial")
	}
	resp = getJSON(t, cached, http.StatusOK, nil)
	if got := resp.Header.Get("X-Degraded"); got != "" {
		t.Errorf("closed breaker still degrading: X-Degraded = %q", got)
	}
}

// TestBreakerOpensOnTimeouts drives the breaker end to end: with a
// nanosecond compute budget every miss fails, and after the threshold the
// server sheds compute instead of burning timeouts.
func TestBreakerOpensOnTimeouts(t *testing.T) {
	ts, _, _ := newTestServerFull(t, func(cfg *Config) {
		cfg.RequestTimeout = time.Nanosecond
		cfg.BreakerThreshold = 2
	})
	for i := 0; i < 2; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/condprob?anchor=HW&window=%dh", ts.URL, 24*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("timed-out compute = %d, want 503", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/condprob?anchor=NET&window=week")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Degraded"); got != "circuit-open" {
		t.Errorf("after threshold timeouts X-Degraded = %q, want circuit-open", got)
	}
}

// TestIdempotencyReplay posts the same batch twice under one key and
// asserts the second is a replay: identical body, no second ingestion.
func TestIdempotencyReplay(t *testing.T) {
	ts, _, _ := newTestServerFull(t, nil)
	body := `{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`

	post := func() (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/events", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Idempotency-Key", "batch-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	first, firstBody := post()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first POST = %d; body: %s", first.StatusCode, firstBody)
	}
	if first.Header.Get("X-Idempotent-Replay") != "" {
		t.Error("first POST marked as replay")
	}
	second, secondBody := post()
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second POST = %d", second.StatusCode)
	}
	if second.Header.Get("X-Idempotent-Replay") != "1" {
		t.Error("second POST not marked as replay")
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Errorf("replayed body differs:\n%s\nvs\n%s", firstBody, secondBody)
	}

	metrics := string(fetchMetrics(t, ts))
	for _, want := range []string{
		"hpcserve_events_accepted_total 1", // not 2: the replay ingested nothing
		"hpcserve_engine_observed_events_total 1",
		"hpcserve_idempotent_replays_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestIdempotencyConcurrentDuplicates races many POSTs on one key: the key
// is reserved atomically at request start, so exactly one request ingests
// and every racer replays its response — not just serial retries.
func TestIdempotencyConcurrentDuplicates(t *testing.T) {
	ts, _, _ := newTestServerFull(t, nil)
	body := `{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`
	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/events", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Idempotency-Key", "race-1")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d; body: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	metrics := string(fetchMetrics(t, ts))
	for _, want := range []string{
		"hpcserve_events_accepted_total 1", // one ingestion across all racers
		"hpcserve_engine_observed_events_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestAppendFailureRecordedUnderKey: a WAL-append failure fails the whole
// request with 500, and that outcome is recorded under the idempotency key
// — a retry must replay the 500, not re-ingest events from earlier in the
// batch that are already durable and observed.
func TestAppendFailureRecordedUnderKey(t *testing.T) {
	ds := testDS()
	engine, err := risk.FromDataset(ds, trace.Day)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := risk.OpenJournal(risk.JournalConfig{
		Engine: engine,
		WAL:    wal.Options{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{t: day(100)}
	s, err := New(Config{Dataset: ds, Window: trace.Day, Journal: j, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, b := postEvents(t, ts.URL, `{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest = %d; body: %s", resp.StatusCode, b)
	}
	j.Close() // break the WAL: every append now fails with risk.ErrAppend

	post := func() (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/events",
			strings.NewReader(`{"events":[{"system":1,"node":1,"category":"SW","sw":"OS"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Idempotency-Key", "broken-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}
	first, firstBody := post()
	if first.StatusCode != http.StatusInternalServerError {
		t.Fatalf("broken-WAL POST = %d, want 500; body: %s", first.StatusCode, firstBody)
	}
	if first.Header.Get("X-Idempotent-Replay") != "" {
		t.Error("first failure marked as replay")
	}
	second, secondBody := post()
	if second.StatusCode != http.StatusInternalServerError {
		t.Fatalf("retried POST = %d, want replayed 500", second.StatusCode)
	}
	if second.Header.Get("X-Idempotent-Replay") != "1" {
		t.Error("retry after WAL failure not replayed — it would re-ingest the durable prefix")
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Errorf("replayed failure body differs:\n%s\nvs\n%s", firstBody, secondBody)
	}

	metrics := string(fetchMetrics(t, ts))
	if !strings.Contains(metrics, "hpcserve_events_accepted_total 1") {
		t.Errorf("failed batches must not count as accepted:\n%s", metrics)
	}
}

// TestEventTimestampValidation rejects absurd event times.
func TestEventTimestampValidation(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	for _, tc := range []struct{ name, when string }{
		{"far-future", day(100).Add(2 * time.Hour).Format(time.RFC3339)},
		{"pre-epoch", "1970-06-01T00:00:00Z"},
		{"ancient", "1985-01-01T00:00:00Z"},
	} {
		body := fmt.Sprintf(`{"events":[{"system":1,"node":0,"category":"HW","time":%q}]}`, tc.when)
		resp, b := postEvents(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST = %d, want 400; body: %s", tc.name, resp.StatusCode, b)
		}
	}
	// Within bounds (just under an hour ahead) is accepted.
	body := fmt.Sprintf(`{"events":[{"system":1,"node":0,"category":"HW","time":%q}]}`,
		day(100).Add(30*time.Minute).Format(time.RFC3339))
	resp, b := postEvents(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("near-future event = %d, want 200; body: %s", resp.StatusCode, b)
	}
}

// TestRiskTopKClamp: k beyond the node population is clamped, not an error.
func TestRiskTopKClamp(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	var out struct {
		Scores []scoreJSON `json:"scores"`
	}
	getJSON(t, ts.URL+"/v1/risk/top?k=1000000000", http.StatusOK, &out)
	if len(out.Scores) > 4 {
		t.Errorf("4-node system returned %d scores", len(out.Scores))
	}
}

// TestRiskAtParam pins the deterministic-scoring contract: the same ?at=
// instant returns byte-identical answers regardless of wall time.
func TestRiskAtParam(t *testing.T) {
	ts, clock := newTestServer(t, nil)
	postEvents(t, ts.URL, `{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`)
	at := day(100).Add(time.Minute).Format(time.RFC3339)

	fetch := func() string {
		resp, err := http.Get(ts.URL + "/v1/risk/top?k=4&at=" + at)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("at query = %d; body: %s", resp.StatusCode, b)
		}
		return string(b)
	}
	first := fetch()
	clock.Advance(3 * time.Hour) // wall time moves; the pinned answer must not
	if second := fetch(); first != second {
		t.Errorf("?at= answer drifted with wall clock:\n%s\nvs\n%s", first, second)
	}
	if !strings.Contains(first, `"at": "`+at) {
		t.Errorf("response at field not pinned:\n%s", first)
	}
}

// TestSnapshotEndpoint: /v1/snapshot is deterministic and two servers fed
// the same events serve identical bytes.
func TestSnapshotEndpoint(t *testing.T) {
	events := `{"events":[
		{"system":1,"node":0,"category":"HW","hw":"CPU","time":"2000-04-09T06:00:00Z"},
		{"system":1,"node":2,"category":"NET","time":"2000-04-09T07:00:00Z"}
	]}`
	fetch := func(ts *httptest.Server) string {
		resp, err := http.Get(ts.URL + "/v1/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot = %d", resp.StatusCode)
		}
		return string(b)
	}

	tsA, _ := newTestServer(t, nil)
	tsB, _ := newTestServer(t, nil)
	postEvents(t, tsA.URL, events)
	postEvents(t, tsB.URL, events)

	a1, a2, b := fetch(tsA), fetch(tsA), fetch(tsB)
	if a1 != a2 {
		t.Error("snapshot not stable across reads")
	}
	if a1 != b {
		t.Errorf("identically fed servers diverge:\n%s\nvs\n%s", a1, b)
	}
	if !strings.Contains(a1, `"observed": 2`) {
		t.Errorf("snapshot missing observed events:\n%s", a1)
	}
}

// TestServerJournalRecovery runs the crash-recovery loop at the handler
// layer: ingest through a journaled server, drop it without shutdown,
// rebuild over the same WAL dir, and require /v1/snapshot and a pinned
// /v1/risk/top to be byte-identical to an uninterrupted twin.
func TestServerJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{t: day(100)}

	openServer := func() (*httptest.Server, *risk.Journal) {
		t.Helper()
		ds := testDS()
		engine, err := risk.FromDataset(ds, trace.Day)
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := risk.OpenJournal(risk.JournalConfig{
			Engine:         engine,
			WAL:            wal.Options{Dir: dir, Policy: wal.SyncAlways},
			SnapshotPolicy: checkpoint.Fixed{Every: time.Hour},
			Now:            clock.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Dataset: ds, Window: trace.Day, Journal: j, Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(s.Handler()), j
	}

	// Uninterrupted twin: plain in-memory server fed the same events.
	twin, _ := newTestServer(t, nil)

	events := []string{
		`{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU","time":"2000-04-09T06:00:00Z"}]}`,
		`{"events":[{"system":1,"node":1,"category":"SW","sw":"OS","time":"2000-04-09T07:00:00Z"}]}`,
		`{"events":[{"system":1,"node":3,"category":"NET","time":"2000-04-09T08:00:00Z"}]}`,
	}

	ts1, _ := openServer() // deliberately never closed cleanly: the "crash"
	for _, e := range events {
		if resp, b := postEvents(t, ts1.URL, e); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest = %d; body: %s", resp.StatusCode, b)
		}
		if resp, b := postEvents(t, twin.URL, e); resp.StatusCode != http.StatusOK {
			t.Fatalf("twin ingest = %d; body: %s", resp.StatusCode, b)
		}
	}
	ts1.Close() // closes the HTTP listener; the journal is simply dropped

	ts2, j2 := openServer()
	defer ts2.Close()
	defer j2.Close()

	get := func(ts *httptest.Server, path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d; body: %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	at := "?k=4&at=" + day(100).Format(time.RFC3339)
	if got, want := get(ts2, "/v1/snapshot"), get(twin, "/v1/snapshot"); got != want {
		t.Errorf("recovered snapshot differs from uninterrupted twin:\n%s\nvs\n%s", got, want)
	}
	if got, want := get(ts2, "/v1/risk/top"+at), get(twin, "/v1/risk/top"+at); got != want {
		t.Errorf("recovered risk ranking differs:\n%s\nvs\n%s", got, want)
	}
}

// testLeakUnderLoad starts a real ServeListener, floods it with concurrent
// mixed traffic, cancels the serve context mid-flight, and asserts the
// server's goroutines all die.
func testLeakUnderLoad(t *testing.T, mutate func(*Config)) {
	t.Helper()
	before := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dataset: testDS(), Window: trace.Day}
	if mutate != nil {
		mutate(&cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeListener(ctx, ln, cfg) }()

	url := "http://" + ln.Addr().String()
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

	paths := []string{
		"/healthz",
		"/v1/risk/top?k=4",
		"/v1/risk/0",
		"/v1/condprob?anchor=HW&window=week",
		"/v1/snapshot",
	}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				if resp, err := http.Get(url + paths[(i+n)%len(paths)]); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if n%5 == 0 {
					resp, err := http.Post(url+"/v1/events", "application/json",
						strings.NewReader(`{"events":[{"system":1,"node":1,"category":"NET"}]}`))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(i)
	}
	// Cancel while traffic is still flowing, then let the clients drain.
	time.Sleep(30 * time.Millisecond)
	cancel()
	wg.Wait()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeListener returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("ServeListener did not return after cancel")
	}

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

// TestShutdownJoinsHandlersUnderChaos floods a ServeListener with
// chaos-injected traffic, cancels it mid-flight, and asserts no goroutines
// leak — the shutdown path must join in-flight handlers even when some
// connections were aborted by the injector.
func TestShutdownJoinsHandlersUnderChaos(t *testing.T) {
	testLeakUnderLoad(t, func(cfg *Config) {
		chaos := faultinject.NewChaos(faultinject.ChaosSpec{
			Seed:        7,
			LatencyProb: 0.2,
			MaxLatency:  5 * time.Millisecond,
			ErrorProb:   0.2,
			AbortProb:   0.1,
		})
		cfg.Middleware = chaos.Middleware
	})
}

// TestShutdownJoinsJournaledHandlers: same, with a journal in the ingest
// path — the final WAL sync must not race in-flight appends.
func TestShutdownJoinsJournaledHandlers(t *testing.T) {
	dir := t.TempDir()
	ds := testDS()
	engine, err := risk.FromDataset(ds, trace.Day)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := risk.OpenJournal(risk.JournalConfig{
		Engine: engine,
		WAL:    wal.Options{Dir: dir, Policy: wal.SyncInterval},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	testLeakUnderLoad(t, func(cfg *Config) {
		cfg.Dataset = ds
		cfg.Journal = j
	})
}
