package server

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// serveUp runs ServeListener over cfg on a loopback port until the test
// ends or stop is called, and returns once /healthz answers.
func serveUp(t *testing.T, cfg Config) (url string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeListener(ctx, ln, cfg) }()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeListener = %v", err)
		}
	}
	t.Cleanup(stop)
	url = "http://" + ln.Addr().String()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			return url, stop
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
	}
}

// TestUpkeepFlushesIntervalWAL: under the interval fsync policy, appends
// that no later append follows still reach stable storage. Two acknowledged
// POSTs followed by ten quiet intervals must both survive a power loss —
// the upkeep loop flushes the dirty log, not the next append.
func TestUpkeepFlushesIntervalWAL(t *testing.T) {
	fsys := iofault.NewMemFS()
	const dir = "/wal"
	url, stop := serveUp(t, Config{
		Dataset:  testDS(),
		Window:   trace.Day,
		ShardWAL: wal.Options{Dir: dir, FS: fsys, Policy: wal.SyncInterval, Interval: 200 * time.Millisecond},
		Logf:     func(string, ...any) {},
	})
	// Past one interval since the log opened, the first append syncs on its
	// own; the second, right behind it, is left dirty with nothing after it.
	time.Sleep(300 * time.Millisecond)
	for _, ev := range []string{
		`{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`,
		`{"events":[{"system":1,"node":1,"category":"NET"}]}`,
	} {
		if resp, b := postEvents(t, url, ev); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST = %d; body: %s", resp.StatusCode, b)
		}
	}
	time.Sleep(2 * time.Second)
	fsys.Reboot(iofault.TearNone) // power loss: only synced bytes survive
	stop()

	fol, err := wal.OpenFollowerFS(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := fol.Next(0, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("%d of 2 acknowledged records durable after 10 quiet intervals", n)
	}
}

// TestUpkeepSnapshotPolicy: a snapshot policy spacing shorter than the
// supervision heartbeat is honoured by the serve loop, for the root
// dataset and for a named tenant created mid-serve.
func TestUpkeepSnapshotPolicy(t *testing.T) {
	walDir, tenantRoot := t.TempDir(), t.TempDir()
	url, _ := serveUp(t, Config{
		Dataset:        testDS(),
		Window:         trace.Day,
		ShardWAL:       wal.Options{Dir: walDir},
		SnapshotPolicy: checkpoint.Fixed{Every: 300 * time.Millisecond},
		TenantRoot:     tenantRoot,
		Logf:           func(string, ...any) {},
	})
	waitFile := func(path string) {
		t.Helper()
		for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			if _, err := os.Stat(path); err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("no %s within 3s under a 300ms snapshot policy", path)
			}
		}
	}
	waitFile(filepath.Join(walDir, risk.SnapshotFile))
	createTenant(t, url, `{"name":"late","seed":3,"scale":0.01}`, nil)
	waitFile(filepath.Join(tenantRoot, "late", "shard-000", risk.SnapshotFile))
}
