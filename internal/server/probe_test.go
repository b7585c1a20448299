package server

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// gateFS holds the next segment fsync, or the next segment read, once
// armed: the call signals held and waits for release, as a slow disk
// would keep it.
type gateFS struct {
	iofault.FS
	syncArmed, readArmed atomic.Bool
	held, release        chan struct{}
}

type gateFile struct {
	iofault.File
	fs *gateFS
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Ext(name) != ".seg" {
		return f, err
	}
	return &gateFile{File: f, fs: g}, nil
}

func (g *gateFS) hold(armed *atomic.Bool) {
	if armed.CompareAndSwap(true, false) {
		g.held <- struct{}{}
		<-g.release
	}
}

func (f *gateFile) Sync() error {
	f.fs.hold(&f.fs.syncArmed)
	return f.File.Sync()
}

func (f *gateFile) Read(p []byte) (int, error) {
	f.fs.hold(&f.fs.readArmed)
	return f.File.Read(p)
}

// TestStatusNeverWaitsOnWritePath: the status read behind /healthz,
// /readyz, /v1/datasets and /metrics answers while a journal's fsync is
// held (ObserveBatch keeps the journal's lock across it) and while a
// standby's catchup is held mid-read (the drain keeps the standby's lock).
func TestStatusNeverWaitsOnWritePath(t *testing.T) {
	fs := &gateFS{FS: iofault.Disk, held: make(chan struct{}), release: make(chan struct{})}
	ts, s, _ := newTestServerFull(t, func(cfg *Config) {
		cfg.ShardWAL = wal.Options{Dir: t.TempDir(), Policy: wal.SyncAlways, FS: fs}
		cfg.Standby = true
	})
	statusWithin := func(what string) {
		t.Helper()
		done := make(chan datasetStatus, 1)
		go func() { done <- s.fabric.status() }()
		select {
		case d := <-done:
			if len(d.shards) != 1 || d.shards[0].Standby == "" {
				t.Fatalf("status while %s: %+v", what, d.shards)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("status waited on %s", what)
			close(fs.release) // let the held call finish before failing
			<-done
			t.FailNow()
		}
	}

	fs.syncArmed.Store(true)
	posted := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/events", "application/json",
			strings.NewReader(`{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`))
		if err != nil {
			posted <- 0
			return
		}
		resp.Body.Close()
		posted <- resp.StatusCode
	}()
	<-fs.held
	statusWithin("a held WAL fsync")
	fs.release <- struct{}{}
	if code := <-posted; code != http.StatusOK {
		t.Fatalf("POST = %d", code)
	}

	fs.readArmed.Store(true)
	caught := make(chan struct{})
	go func() { s.CatchupStandbys(); close(caught) }()
	<-fs.held
	statusWithin("a held standby catchup")
	fs.release <- struct{}{}
	<-caught
	if d := s.fabric.status(); d.shards[0].lag != 0 || d.shards[0].Standby != "warm" {
		t.Fatalf("after catchup: lag %d, standby %q", d.shards[0].lag, d.shards[0].Standby)
	}
}
