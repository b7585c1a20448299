package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// countingFS wraps the real disk and counts files opened minus files
// closed, so a test can assert a server released every WAL handle.
type countingFS struct {
	iofault.FS
	open atomic.Int64
}

type countedFile struct {
	iofault.File
	fs     *countingFS
	closed atomic.Bool
}

func (f *countedFile) Close() error {
	if f.closed.CompareAndSwap(false, true) {
		f.fs.open.Add(-1)
	}
	return f.File.Close()
}

func (c *countingFS) count(f iofault.File, err error) (iofault.File, error) {
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	return &countedFile{File: f, fs: c}, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	return c.count(c.FS.OpenFile(name, flag, perm))
}

func (c *countingFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	return c.count(c.FS.CreateTemp(dir, pattern))
}

// TestServeListenerClosesJournals: once ServeListener returns, the root
// server has closed every journal it opened — in the root WAL layout
// (Shards 0) and the shard-NNN layout alike — so no WAL file stays open.
func TestServeListenerClosesJournals(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fsys := &countingFS{FS: iofault.Disk}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Dataset:  fleetDS(),
				Window:   trace.Day,
				Shards:   shards,
				ShardWAL: wal.Options{Dir: t.TempDir(), FS: fsys},
				Logf:     func(string, ...any) {},
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
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
			feedFleet(t, url)
			if fsys.open.Load() == 0 {
				t.Fatal("no WAL file open while serving; the counter sees nothing")
			}
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("ServeListener = %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("ServeListener did not return after cancel")
			}
			if n := fsys.open.Load(); n != 0 {
				t.Errorf("%d WAL files still open after ServeListener returned", n)
			}
		})
	}
}

// TestOneShardLayoutsAgree: Shards 0 and Shards 1 are the same one-shard
// server and differ only in where the WAL lives — directly under
// ShardWAL.Dir versus under shard-000/. Fed the same POST stream, every read
// route answers byte-identically with the same X-Dataset-Version, and each
// recovers the same /v1/snapshot from its own directory.
func TestOneShardLayoutsAgree(t *testing.T) {
	clock := &fakeClock{t: day(100)}
	build := func(shards int, dir string) (*Server, *httptest.Server) {
		t.Helper()
		// Each server gets its own dataset instance: a one-shard server
		// takes its dataset over without a copy.
		s, err := New(Config{
			Dataset:        fleetDS(),
			Window:         trace.Day,
			Shards:         shards,
			ShardWAL:       wal.Options{Dir: dir, Policy: wal.SyncAlways},
			SnapshotPolicy: checkpoint.Fixed{Every: time.Hour},
			Now:            clock.Now,
			Logf:           func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	var servers []*Server
	var urls []string
	for shards, dir := range dirs {
		s, ts := build(shards, dir)
		defer ts.Close()
		servers = append(servers, s)
		urls = append(urls, ts.URL)
	}

	post := func(body string) {
		t.Helper()
		for _, url := range urls {
			if resp, b := postEvents(t, url, body); resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s = %d; body: %s", url, resp.StatusCode, b)
			}
		}
	}
	feed := func() {
		for _, url := range urls {
			feedFleet(t, url)
		}
	}
	feed()
	post(`{"events":[{"system":2,"node":0,"category":"NET","time":"2000-04-09T06:00:00Z"},{"system":5,"node":1,"category":"HW","hw":"CPU","time":"2000-04-09T07:00:00Z"}]}`)
	// Snapshot mid-stream, so recovery below restores a snapshot and then
	// replays a WAL tail.
	for _, s := range servers {
		_, _, j := s.fabric.shards[0].view()
		if err := j.Checkpoint(clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	feed()

	at := "at=" + day(100).Format(time.RFC3339)
	routes := []string{
		"/v1/risk/1?system=3&" + at,
		"/v1/risk/top?k=5&" + at,
		"/v1/risk/top?k=3&system=5&" + at,
		"/v1/condprob?anchor=HW&target=SW&window=week&scope=node",
		"/v1/condprob?anchor=HW&window=day&scope=rack",
		"/v1/condprob?anchor=SW&window=week&scope=system&group=2",
		"/v1/correlations?window=week&min_support=1&min_confidence=0.01",
		"/v1/anomalies?k=4",
		"/v1/rates?window=week",
		"/v1/snapshot",
	}
	for _, route := range routes {
		resp0, body0 := getRaw(t, urls[0]+route)
		resp1, body1 := getRaw(t, urls[1]+route)
		if resp0.StatusCode != http.StatusOK || resp1.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d / %d; bodies:\n%s\n%s", route, resp0.StatusCode, resp1.StatusCode, body0, body1)
		}
		if string(body0) != string(body1) {
			t.Errorf("GET %s: Shards 0 and Shards 1 bodies differ:\n%s\nvs\n%s", route, body0, body1)
		}
		if v0, v1 := resp0.Header.Get("X-Dataset-Version"), resp1.Header.Get("X-Dataset-Version"); v0 != v1 || v0 == "" {
			t.Errorf("GET %s: X-Dataset-Version %q vs %q", route, v0, v1)
		}
	}

	// Layout: root files for Shards 0, shard-000/ for Shards 1, and nothing
	// loose at the Shards 1 root.
	logDirs := []string{dirs[0], filepath.Join(dirs[1], "shard-000")}
	for i, dir := range logDirs {
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if len(segs) == 0 {
			t.Errorf("Shards %d: no WAL segment in %s", i, dir)
		}
		if _, err := os.Stat(filepath.Join(dir, risk.SnapshotFile)); err != nil {
			t.Errorf("Shards %d: snapshot not in %s: %v", i, dir, err)
		}
	}
	if loose, _ := filepath.Glob(filepath.Join(dirs[1], "wal-*.seg")); len(loose) != 0 {
		t.Errorf("Shards 1: WAL segments at the root: %v", loose)
	}
	if _, err := os.Stat(filepath.Join(dirs[0], "shard-000")); err == nil {
		t.Error("Shards 0: a shard-000/ directory exists")
	}

	// Recovery: each layout, rebuilt over its own directory, restores the
	// snapshot it served before.
	_, want := getRaw(t, urls[0]+"/v1/snapshot")
	for shards, dir := range dirs {
		servers[shards].Close()
		s, ts := build(shards, dir)
		_, got := getRaw(t, ts.URL+"/v1/snapshot")
		ts.Close()
		s.Close()
		if string(got) != string(want) {
			t.Errorf("Shards %d: recovered snapshot differs:\n%s\nvs\n%s", shards, got, want)
		}
	}
}
