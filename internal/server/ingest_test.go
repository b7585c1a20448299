package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// TestOneStoreAppendPerShard: an 8-event POST is one store append and one
// version step on every shard it touches, journaled or not.
func TestOneStoreAppendPerShard(t *testing.T) {
	const body = `{"events":[
		{"system":1,"node":0,"category":"HW","hw":"CPU"},
		{"system":2,"node":1,"category":"SW","sw":"OS"},
		{"system":3,"node":2,"category":"NET"},
		{"system":4,"node":3,"category":"HW","hw":"Memory"},
		{"system":5,"node":0,"category":"SW","sw":"OS"},
		{"system":6,"node":1,"category":"NET"},
		{"system":1,"node":2,"category":"SW","sw":"OS"},
		{"system":2,"node":3,"category":"HW","hw":"CPU"}]}`
	for _, tc := range []struct {
		name   string
		wal    bool
		shards int
	}{
		{"no-wal", false, 0},
		{"wal", true, 0},
		{"wal-3-shards", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, s, _ := newTestServerFull(t, func(cfg *Config) {
				cfg.Dataset = fleetDS()
				cfg.Shards = tc.shards
				if tc.wal {
					cfg.ShardWAL = wal.Options{Dir: t.TempDir()}
				}
				cfg.Logf = func(string, ...any) {}
			})
			touched := map[int]bool{}
			for sys := 1; sys <= 6; sys++ {
				owner, _ := s.fabric.ownerOf(sys)
				touched[owner] = true
			}
			appends := func() uint64 {
				v, _ := metricValue(t, fetchMetrics(t, ts), "hpcserve_store_appends_total")
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatalf("hpcserve_store_appends_total = %q", v)
				}
				return n
			}
			shardVersions := func() []uint64 {
				var out []uint64
				for _, sh := range s.fabric.shards {
					st, _, _ := sh.view()
					out = append(out, st.Version())
				}
				return out
			}
			appends0, versions0, version0 := appends(), shardVersions(), s.fabric.maxVersion()
			resp, b := postEvents(t, ts.URL, body)
			var out eventsResponse
			mustDecode(t, b, &out)
			if resp.StatusCode != http.StatusOK || out.Accepted != 8 {
				t.Fatalf("POST = %d; body: %s", resp.StatusCode, b)
			}
			if got := resp.Header.Get("X-Dataset-Version"); got != strconv.FormatUint(version0+1, 10) {
				t.Errorf("X-Dataset-Version = %s, want %d", got, version0+1)
			}
			if got := appends() - appends0; got != uint64(len(touched)) {
				t.Errorf("store appends advanced by %d, want %d (one per touched shard)", got, len(touched))
			}
			for i, v := range shardVersions() {
				want := versions0[i]
				if touched[i] {
					want++
				}
				if v != want {
					t.Errorf("shard %d version %d -> %d, want %d", i, versions0[i], v, want)
				}
			}
			if got, want := s.fabric.status().total.events, len(fleetDS().Failures)+8; got != want {
				t.Errorf("stores hold %d events, want %d", got, want)
			}
		})
	}
}

// slowWriteFS wraps the real disk: once armed, the next file write sleeps
// first — a WAL append that outlives the request's deadline.
func slowWriteFS(d time.Duration) *killOnWriteFS {
	return &killOnWriteFS{FS: iofault.Disk, onWrite: func() { time.Sleep(d) }}
}

// TestSlowWriteReportsItsOutcome: a write the shard has started is waited
// out and reported as what it did, not as a deadline rejection that a retry
// would double-ingest. A write still in the injected stall when the
// deadline passes is given up before it runs.
func TestSlowWriteReportsItsOutcome(t *testing.T) {
	fsys := slowWriteFS(300 * time.Millisecond)
	ts, s, _ := newTestServerFull(t, func(cfg *Config) {
		cfg.ShardWAL = wal.Options{Dir: t.TempDir(), FS: fsys}
		cfg.RequestTimeout = 20 * time.Millisecond
		cfg.Logf = func(string, ...any) {}
	})
	_, eng, j := s.fabric.shards[0].view()
	before := s.fabric.status().total.events
	fsys.armed.Store(true)
	resp, body := postEvents(t, ts.URL, `{"events":[{"system":1,"node":1,"category":"HW","hw":"CPU"}]}`)
	if fsys.armed.Load() {
		t.Fatal("no WAL write happened")
	}
	var out eventsResponse
	mustDecode(t, body, &out)
	if resp.StatusCode != http.StatusOK || out.Accepted != 1 {
		t.Fatalf("slow write = %d %s, want 200 with the event accepted", resp.StatusCode, body)
	}
	if got := j.WALCount(); got != 1 {
		t.Errorf("WAL holds %d records, want 1", got)
	}
	if got := eng.Snapshot().Observed; got != 1 {
		t.Errorf("engine observed %d events, want 1", got)
	}
	if got := s.fabric.status().total.events; got != before+1 {
		t.Errorf("store holds %d events, want %d", got, before+1)
	}

	s.StallShard(0, 300*time.Millisecond)
	resp, body = postEvents(t, ts.URL, `{"events":[{"system":1,"node":2,"category":"HW","hw":"CPU"}]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "shard deadline exceeded") {
		t.Fatalf("stalled write = %d %s, want 400 shard deadline exceeded", resp.StatusCode, body)
	}
	time.Sleep(400 * time.Millisecond) // past the stall: a late start would show now
	if got := j.WALCount(); got != 1 {
		t.Errorf("given-up write reached the WAL: %d records, want 1", got)
	}
	if got := eng.Snapshot().Observed; got != 1 {
		t.Errorf("given-up write reached the engine: observed %d, want 1", got)
	}
	if got := s.fabric.status().total.events; got != before+1 {
		t.Errorf("given-up write reached the store: %d events, want %d", got, before+1)
	}
}

// failShardWriteFS wraps the real disk: once armed, the n-th write to a
// file under dir fails with err.
type failShardWriteFS struct {
	iofault.FS
	dir   string
	err   error
	left  atomic.Int32
	armed atomic.Bool
}

type failShardWriteFile struct {
	iofault.File
	fs *failShardWriteFS
}

func (f *failShardWriteFile) Write(p []byte) (int, error) {
	c := f.fs
	if c.armed.Load() && strings.HasPrefix(f.Name(), c.dir) && c.left.Add(-1) == 0 {
		return 0, c.err
	}
	return f.File.Write(p)
}

func (c *failShardWriteFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failShardWriteFile{File: f, fs: c}, nil
}

// TestCrossShardWALFailureDurableSet: when one shard's WAL fails midway
// through its group, the request fails (500, or 503 for a full disk), and
// what every shard durably logged — each earlier shard's whole group plus
// the failing shard's prefix — is exactly what its engine observed and its
// store holds. Later shards are not called. An idempotent retry replays the
// failure instead of re-ingesting.
func TestCrossShardWALFailureDurableSet(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		code int
	}{
		{"eio", &os.PathError{Op: "write", Path: "wal", Err: syscall.EIO}, http.StatusInternalServerError},
		{"enospc", &os.PathError{Op: "write", Path: "wal", Err: syscall.ENOSPC}, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			fsys := &failShardWriteFS{FS: iofault.Disk, err: tc.err}
			ts, s, _ := newTestServerFull(t, func(cfg *Config) {
				cfg.Dataset = fleetDS()
				cfg.Shards = 3
				cfg.ShardWAL = wal.Options{Dir: root, FS: fsys}
				cfg.Logf = func(string, ...any) {}
			})
			// One system per shard.
			sysOf := map[int]int{}
			for sys := 6; sys >= 1; sys-- {
				owner, _ := s.fabric.ownerOf(sys)
				sysOf[owner] = sys
			}
			if len(sysOf) != 3 {
				t.Fatalf("fleet spans %d shards, want 3", len(sysOf))
			}
			// Shard 0's group is events {0, 5}, shard 1's {1, 2, 4} and
			// shard 2's {3}. Shard 1's second record fails, so the durable
			// set is {0, 5, 1}.
			a, b, c := sysOf[0], sysOf[1], sysOf[2]
			systems := []int{a, b, b, c, b, a}
			var evs []string
			for i, sys := range systems {
				evs = append(evs, fmt.Sprintf(`{"system":%d,"node":%d,"category":"HW","hw":"CPU"}`, sys, i%4))
			}
			body := `{"events":[` + strings.Join(evs, ",") + `]}`
			fsys.dir = shardWALDir(root, 1)
			fsys.left.Store(2)
			fsys.armed.Store(true)

			post := func() (*http.Response, []byte) {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/events", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Idempotency-Key", "cross-shard-1")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				return resp, b
			}
			first, firstBody := post()
			if first.StatusCode != tc.code {
				t.Fatalf("POST = %d, want %d; body: %s", first.StatusCode, tc.code, firstBody)
			}

			wantNew := []int{2, 1, 0}
			for i, sh := range s.fabric.shards {
				st, eng, j := sh.view()
				snap := eng.Snapshot()
				if snap.Observed != uint64(wantNew[i]) || j.WALCount() != uint64(wantNew[i]) {
					t.Errorf("shard %d: observed %d, WAL %d, want %d each", i, snap.Observed, j.WALCount(), wantNew[i])
				}
				var stored []trace.Failure
				for _, f := range st.Snapshot().Dataset().Failures {
					if f.Time.Equal(day(100)) {
						stored = append(stored, f)
					}
				}
				if got, want := eventKeys(stored), eventKeys(snap.Active); got != want {
					t.Errorf("shard %d: store holds %s, engine %s", i, got, want)
				}
			}

			second, secondBody := post()
			if second.StatusCode != tc.code || second.Header.Get("X-Idempotent-Replay") != "1" {
				t.Fatalf("retry = %d (replay %q), want the recorded %d", second.StatusCode, second.Header.Get("X-Idempotent-Replay"), tc.code)
			}
			if !bytes.Equal(firstBody, secondBody) {
				t.Errorf("replayed body differs:\n%s\nvs\n%s", firstBody, secondBody)
			}
			if got := s.fabric.status().total.events; got != len(fleetDS().Failures)+3 {
				t.Errorf("stores hold %d events after the retry, want %d", got, len(fleetDS().Failures)+3)
			}
		})
	}
}

// eventKeys renders events as a sorted list for set comparison.
func eventKeys(evs []trace.Failure) string {
	keys := make([]string, 0, len(evs))
	for _, f := range evs {
		keys = append(keys, fmt.Sprintf("%d/%d/%d/%s", f.System, f.Node, f.Category, f.Time.Format(time.RFC3339)))
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}
