package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// newReadOnlyTestServer builds a journal-backed server whose WAL sits on a
// fault-injecting filesystem. Nothing ticks in-process: the test drives
// each upkeep round (and so each space probe) with SuperviseTick.
func newReadOnlyTestServer(t *testing.T) (*httptest.Server, *Server, *iofault.Inject) {
	t.Helper()
	inj := iofault.NewInject(iofault.Disk, iofault.InjectSpec{})
	clock := &fakeClock{t: day(100)}
	s, err := New(Config{
		Dataset:  testDS(),
		Window:   trace.Day,
		ShardWAL: wal.Options{Dir: t.TempDir(), FS: inj},
		Now:      clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s, inj
}

// TestDiskFullEntersReadOnly: an ENOSPC WAL append latches the server into
// sticky read-only mode — writes get 503 with Retry-After and X-Read-Only,
// reads keep serving, /readyz reports "read-only" — and clearing the fault
// lets the next upkeep round probe its way back to normal service.
func TestDiskFullEntersReadOnly(t *testing.T) {
	ts, s, inj := newReadOnlyTestServer(t)

	if resp, b := postEvents(t, ts.URL, `{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest = %d; body: %s", resp.StatusCode, b)
	}

	inj.SetDiskFull(true)

	// First write after the fault hits the append path and latches the mode.
	resp, body := postEvents(t, ts.URL, `{"events":[{"system":1,"node":1,"category":"SW","sw":"OS"}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disk-full ingest = %d, want 503; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Read-Only") != "true" {
		t.Errorf("disk-full 503 missing X-Read-Only header; got %q", resp.Header.Get("X-Read-Only"))
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("disk-full 503 missing Retry-After")
	}

	// Subsequent writes are rejected at the gate, before touching the WAL.
	resp, _ = postEvents(t, ts.URL, `{"events":[{"system":1,"node":2,"category":"NET"}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gated ingest = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("X-Read-Only") != "true" {
		t.Error("gated 503 missing X-Read-Only header")
	}

	// Reads keep serving while writes are rejected.
	getJSON(t, ts.URL+"/v1/risk/top?k=2", http.StatusOK, nil)

	var ready map[string]any
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &ready)
	if ready["status"] != "read-only" {
		t.Errorf("readyz status = %v, want read-only", ready["status"])
	}

	metrics := string(fetchMetrics(t, ts))
	for _, want := range []string{
		"hpcserve_read_only 1",
		"hpcserve_read_only_entries_total 1",
		"hpcserve_read_only_rejects_total 1",
		`hpcserve_shard_disk_full{shard="0"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("read-only metrics missing %q:\n%s", want, metrics)
		}
	}
	if !strings.Contains(metrics, "hpcserve_wal_append_errors_total") {
		t.Errorf("metrics missing wal append error counter:\n%s", metrics)
	}

	// Space comes back, but only a probe lifts the latch: a write before
	// the next upkeep round is still gated.
	inj.SetDiskFull(false)
	if resp, _ := postEvents(t, ts.URL, `{"events":[{"system":1,"node":3,"category":"HW","hw":"CPU"}]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest before the probe = %d, want 503", resp.StatusCode)
	}
	// The round probes, clears the latch, and the write lands.
	s.SuperviseTick(context.Background())
	if resp, b := postEvents(t, ts.URL, `{"events":[{"system":1,"node":3,"category":"HW","hw":"CPU"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery ingest = %d, want 200; body: %s", resp.StatusCode, b)
	}

	getJSON(t, ts.URL+"/readyz", http.StatusOK, &ready)
	if ready["status"] != "ready" {
		t.Errorf("recovered readyz status = %v, want ready", ready["status"])
	}
	metrics = string(fetchMetrics(t, ts))
	if !strings.Contains(metrics, "hpcserve_read_only 0") {
		t.Errorf("recovered metrics still read-only:\n%s", metrics)
	}

	// The durable record holds both healthy ingests and nothing phantom: a
	// fresh recovery from the same WAL dir would see exactly 2 appends.
	var snap struct {
		Observed uint64 `json:"observed"`
	}
	getJSON(t, ts.URL+"/v1/snapshot", http.StatusOK, &snap)
	if snap.Observed == 0 {
		t.Error("snapshot lost acked events")
	}
}

// TestDiskFullIdempotencyNotPoisoned: an ENOSPC failure with zero events
// accepted must NOT be recorded under the idempotency key — the client's
// retry after space recovers should re-contend and succeed, not replay 503.
func TestDiskFullIdempotencyNotPoisoned(t *testing.T) {
	ts, s, inj := newReadOnlyTestServer(t)

	inj.SetDiskFull(true)
	post := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/events",
			strings.NewReader(`{"events":[{"system":1,"node":1,"category":"SW","sw":"OS"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Idempotency-Key", "enospc-retry")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disk-full ingest = %d, want 503", resp.StatusCode)
	}
	inj.SetDiskFull(false)
	s.SuperviseTick(context.Background())
	if resp := post(); resp.StatusCode != http.StatusOK {
		t.Fatalf("retried ingest after recovery = %d, want 200 (503 must not be replayed)", resp.StatusCode)
	}
}

// TestSnapshotFailureCounted: a periodic snapshot whose write fails is
// counted in hpcserve_wal_append_errors_total, as that metric's help text
// says, and leaves the shard serving.
func TestSnapshotFailureCounted(t *testing.T) {
	inj := iofault.NewInject(iofault.Disk, iofault.InjectSpec{})
	clock := &fakeClock{t: day(100)}
	s, err := New(Config{
		Dataset:        testDS(),
		Window:         trace.Day,
		ShardWAL:       wal.Options{Dir: t.TempDir(), FS: inj, Policy: wal.SyncAlways},
		SnapshotPolicy: checkpoint.Fixed{Every: time.Hour},
		Now:            clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if resp, b := postEvents(t, ts.URL, `{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d; body: %s", resp.StatusCode, b)
	}
	// Every appended record is already synced, so the next write is the
	// snapshot file's, due once the policy's hour has passed.
	inj.FailNextWrite(errors.New("injected snapshot write failure"))
	clock.Advance(2 * time.Hour)
	s.SuperviseTick(context.Background())

	metrics := string(fetchMetrics(t, ts))
	if !strings.Contains(metrics, "hpcserve_wal_append_errors_total 1\n") {
		t.Errorf("failed snapshot not counted:\n%s", metrics)
	}
	if resp, b := postEvents(t, ts.URL, `{"events":[{"system":1,"node":1,"category":"NET"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after failed snapshot = %d; body: %s", resp.StatusCode, b)
	}
}
