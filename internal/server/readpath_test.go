package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// killOnWriteFS wraps the real disk: once armed, the next file write runs
// onWrite first — the hook that kills a shard while its journal is inside
// Observe.
type killOnWriteFS struct {
	iofault.FS
	armed   atomic.Bool
	onWrite func()
}

type killOnWriteFile struct {
	iofault.File
	fs *killOnWriteFS
}

func (f *killOnWriteFile) Write(p []byte) (int, error) {
	if f.fs.armed.CompareAndSwap(true, false) {
		f.fs.onWrite()
	}
	return f.File.Write(p)
}

func (c *killOnWriteFS) wrap(f iofault.File, err error) (iofault.File, error) {
	if err != nil {
		return nil, err
	}
	return &killOnWriteFile{File: f, fs: c}, nil
}

func (c *killOnWriteFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	return c.wrap(c.FS.OpenFile(name, flag, perm))
}

func (c *killOnWriteFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}

// TestShardKilledMidObserveAppendsOnce: a shard killed while its journal is
// appending an event detaches that journal before the ingest call returns.
// The journal has already applied the acknowledged event to the store, so
// the handler must not append it a second time.
func TestShardKilledMidObserveAppendsOnce(t *testing.T) {
	fsys := &killOnWriteFS{FS: iofault.Disk}
	ts, s, _ := newTestServerFull(t, func(cfg *Config) {
		cfg.ShardWAL = wal.Options{Dir: t.TempDir(), FS: fsys}
		cfg.Logf = func(string, ...any) {}
	})
	killed := make(chan struct{})
	fsys.onWrite = func() {
		go func() {
			s.KillShard(0)
			close(killed)
		}()
		// The detach clears the shard's journal at once; closing it then
		// waits for this Observe to finish.
		for {
			if _, _, j := s.fabric.shards[0].view(); j == nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	before := s.fabric.status().total.events
	fsys.armed.Store(true)
	resp, body := postEvents(t, ts.URL, `{"events":[{"system":1,"node":1,"category":"HW","hw":"CPU"}]}`)
	<-killed
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST events = %d; body: %s", resp.StatusCode, body)
	}
	if fsys.armed.Load() {
		t.Fatal("no WAL write happened; the kill never ran mid-observe")
	}
	if got := s.fabric.status().total.events; got != before+1 {
		t.Fatalf("store holds %d events after one acknowledged event, want %d", got, before+1)
	}
}

// TestMaintainKeepsQuietSystemPinned: an upkeep round leaves a quiet
// system's events alone even when another system's feed has moved past its
// window, so ?at=-pinned answers for the quiet system do not change.
func TestMaintainKeepsQuietSystemPinned(t *testing.T) {
	s, err := New(Config{
		Dataset: fleetDS(),
		Window:  trace.Day,
		Now:     func() time.Time { return day(100) },
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postEvents(t, ts.URL, `{"events":[
		{"system":1,"node":0,"category":"HW","hw":"CPU","time":"2000-04-05T20:00:00Z"},
		{"system":2,"node":2,"category":"NET","time":"2000-04-09T22:00:00Z"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST events = %d; body: %s", resp.StatusCode, body)
	}
	pinned := ts.URL + "/v1/risk/top?k=4&system=1&at=2000-04-06T00:00:00Z"
	_, before := getRaw(t, pinned)
	if !bytes.Contains(before, []byte(`"contributions"`)) {
		t.Fatalf("pinned top has no elevated node before the tick:\n%s", before)
	}
	s.SuperviseTick(context.Background())
	if _, after := getRaw(t, pinned); !bytes.Equal(after, before) {
		t.Fatalf("quiet system's pinned top changed across a tick:\n%s\nvs\n%s", before, after)
	}
}

// TestQueryParamErrorsDeterministic: a query with two bad parameters fails
// with the same message every time, for every parser — parameters are
// checked in sorted key order, not map order.
func TestQueryParamErrorsDeterministic(t *testing.T) {
	parsers := []struct {
		name, raw string
		parse     func(string) error
	}{
		{"risk", "k=0&at=bad", func(raw string) error { _, err := parseRiskQuery(raw); return err }},
		{"condprob", "window=x&scope=y", func(raw string) error { _, err := parseCondProbQuery(raw); return err }},
		{"correlations", "min_support=0&scope=y", func(raw string) error { _, err := parseCorrelationsQuery(raw); return err }},
		{"anomalies", "k=0&system=-1", func(raw string) error { _, err := parseAnomaliesQuery(raw); return err }},
		{"rates", "window=x&scope=y", func(raw string) error { _, err := parseRatesQuery(raw); return err }},
	}
	for _, p := range parsers {
		msgs := map[string]bool{}
		for i := 0; i < 64; i++ {
			err := p.parse(p.raw)
			if err == nil {
				t.Fatalf("%s(%q) accepted two bad parameters", p.name, p.raw)
			}
			msgs[err.Error()] = true
		}
		if len(msgs) != 1 {
			t.Errorf("%s(%q) gave %d distinct errors: %v", p.name, p.raw, len(msgs), msgs)
		}
	}
}

// TestRiskRouteContract pins the shared read path of both risk routes over
// {n=1, 3-shard scoped to one system, 3-shard fleet-wide}:
// X-Dataset-Version is the newest version among the shards that answered,
// X-Shard-Versions appears only when several shards answered, an
// out-of-range node is a 404, a killed owner is a 503 with Retry-After, and
// a fleet-wide read with one shard killed is a 200 marked X-Partial.
func TestRiskRouteContract(t *testing.T) {
	fabrics := []struct {
		name   string
		shards int
		scoped bool
	}{
		{"n=1", 0, false},
		{"scoped", 3, true},
		{"fleet-wide", 3, false},
	}
	for _, route := range []string{"node", "top"} {
		for _, fb := range fabrics {
			t.Run(route+"/"+fb.name, func(t *testing.T) {
				s, err := New(Config{
					Dataset: fleetDS(),
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
				feedFleet(t, ts.URL)
				owner := s.fabric.owner[6]
				// One more batch on a system system 6's owner does not hold,
				// so the owner's version trails the fleet's newest.
				other := 1
				for s.fabric.owner[other] == owner && other < 6 {
					other++
				}
				if resp, body := postEvents(t, ts.URL, fmt.Sprintf(`{"events":[{"system":%d,"node":0,"category":"NET"}]}`, other)); resp.StatusCode != http.StatusOK {
					t.Fatalf("POST events = %d; body: %s", resp.StatusCode, body)
				}

				path := "/v1/risk/top?k=24"
				if route == "node" {
					path = "/v1/risk/1?system=6"
				} else if fb.scoped {
					path += "&system=6"
				}
				answering := []int{0}
				switch {
				case route == "node" || fb.scoped:
					answering = []int{owner}
				case fb.shards > 0:
					answering = s.fabric.allShards()
				}
				versionOf := func(idxs []int) string {
					var v uint64
					for _, i := range idxs {
						st, _, _ := s.fabric.shards[i].view()
						v = max(v, st.Snapshot().Version())
					}
					return strconv.FormatUint(v, 10)
				}
				check := func(resp *http.Response, body []byte, idxs []int, partial bool) {
					t.Helper()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("GET %s = %d; body: %s", path, resp.StatusCode, body)
					}
					if got, want := resp.Header.Get("X-Dataset-Version"), versionOf(idxs); got != want {
						t.Fatalf("GET %s: X-Dataset-Version = %s, want %s (shards %v)", path, got, want, idxs)
					}
					if got := resp.Header.Get("X-Shard-Versions"); (got != "") != (len(answering) > 1) {
						t.Fatalf("GET %s: X-Shard-Versions = %q with %d shards involved", path, got, len(answering))
					}
					if got := resp.Header.Get("X-Partial") == "true"; got != partial {
						t.Fatalf("GET %s: X-Partial = %v, want %v", path, got, partial)
					}
				}
				if fb.shards > 0 && len(answering) == 1 && versionOf(answering) == versionOf(s.fabric.allShards()) {
					t.Fatal("the owner's version equals the fleet's newest; the version check proves nothing")
				}
				resp, body := getRaw(t, ts.URL+path)
				check(resp, body, answering, false)
				if route == "node" {
					if resp, body := getRaw(t, ts.URL+"/v1/risk/99?system=6"); resp.StatusCode != http.StatusNotFound {
						t.Fatalf("out-of-range node = %d, want 404; body: %s", resp.StatusCode, body)
					}
				}

				victim := answering[0]
				if err := s.KillShard(victim); err != nil {
					t.Fatal(err)
				}
				resp, body = getRaw(t, ts.URL+path)
				if len(answering) == 1 {
					if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
						t.Fatalf("killed owner: %d, Retry-After %q; body: %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
					}
					return
				}
				check(resp, body, answering[1:], true)
				if !strings.Contains(resp.Header.Get("X-Shard-Versions"), fmt.Sprintf("%d:down", victim)) {
					t.Fatalf("partial answer's X-Shard-Versions = %q, want shard %d down", resp.Header.Get("X-Shard-Versions"), victim)
				}
			})
		}
	}
}

// BenchmarkRiskRoutes times both risk routes in process, scoped to one
// system on a one-shard server over fleetDS with a fed engine — the read
// mix every benchmark workload is mostly made of.
func BenchmarkRiskRoutes(b *testing.B) {
	s, err := New(Config{
		Dataset: fleetDS(),
		Window:  trace.Day,
		Now:     func() time.Time { return day(100) },
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	var evs []string
	for id := 1; id <= 6; id++ {
		evs = append(evs,
			fmt.Sprintf(`{"system":%d,"node":1,"category":"HW","hw":"CPU"}`, id),
			fmt.Sprintf(`{"system":%d,"node":3,"category":"SW","sw":"OS"}`, id))
	}
	post := httptest.NewRequest(http.MethodPost, "/v1/events", strings.NewReader(`{"events":[`+strings.Join(evs, ",")+`]}`))
	rec := httptest.NewRecorder()
	if h.ServeHTTP(rec, post); rec.Code != http.StatusOK {
		b.Fatalf("POST events = %d; body: %s", rec.Code, rec.Body)
	}
	for _, bc := range []struct{ name, path string }{
		{"node", "/v1/risk/1?system=3"},
		{"top", "/v1/risk/top?k=4&system=3"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, bc.path, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("GET %s = %d; body: %s", bc.path, rec.Code, rec.Body)
				}
			}
		})
	}
}
