package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail"
	"github.com/hpcfail/hpcfail/internal/client"
)

// TestKillAndRecoverDiskFull is the ENOSPC acceptance test: a journaled
// hpcserve whose WAL filesystem runs out of space mid-ingest must degrade to
// sticky read-only (writes 503 + X-Read-Only, reads and /readyz keep
// serving), recover on its own once space is freed, and — after a SIGKILL
// and restart over the same WAL directory — match an uninterrupted twin fed
// exactly the acked events, byte for byte. No acked event may be lost to
// the disk-full episode; no rejected event may leak in.
func TestKillAndRecoverDiskFull(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	work := t.TempDir()
	bin := buildServeBinary(t, work)

	dataDir := filepath.Join(work, "data")
	ds, err := hpcfail.Generate(hpcfail.GenerateOptions{Seed: 7, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := hpcfail.SaveDataset(dataDir, ds); err != nil {
		t.Fatal(err)
	}

	sys := ds.Systems[0]
	base := time.Now().UTC().Add(-2 * time.Hour).Truncate(time.Second)
	cats := []struct{ cat, hw, sw string }{
		{"HW", "CPU", ""}, {"SW", "", "OS"}, {"NET", "", ""}, {"HUMAN", "", ""},
	}
	events := make([]client.Event, 30)
	for i := range events {
		at := base.Add(time.Duration(i) * time.Minute)
		c := cats[i%len(cats)]
		events[i] = client.Event{
			System: sys.ID, Node: i % sys.Nodes, Time: &at,
			Category: c.cat, HW: c.hw, SW: c.sw,
		}
	}

	walDir := filepath.Join(work, "wal")
	clearFile := filepath.Join(work, "space-freed")
	addr1 := freeAddr(t)
	ctx := context.Background()

	// Victim: every acked event fsynced, snapshots off, and a WAL filesystem
	// that turns sticky disk-full after ~1.5 KiB of appends. While it is
	// read-only, every upkeep round probes for space.
	victim, _ := startServe(t, bin,
		"-data", dataDir, "-addr", addr1,
		"-wal", walDir, "-wal-fsync", "always", "-snapshot-every", "0",
		"-wal-fault-enospc-after-bytes", "1536",
		"-wal-fault-clear-file", clearFile)

	// A fast-fail client (no retries) so the first read-only rejection
	// surfaces immediately instead of being retried away.
	vc, err := client.New(client.Config{BaseURL: "http://" + addr1, Seed: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}

	// Ingest until the wall: every success is acked-and-durable, the first
	// failure must be the typed read-only rejection.
	acked := -1
	for i, e := range events {
		res, err := vc.PostEvents(ctx, []client.Event{e})
		if err != nil {
			if !errors.Is(err, client.ErrReadOnly) {
				t.Fatalf("event %d failed without ErrReadOnly: %v", i, err)
			}
			acked = i
			break
		}
		if res.Accepted != 1 {
			t.Fatalf("event %d: %+v", i, res)
		}
	}
	if acked < 1 {
		t.Fatalf("disk never filled: all %d events acked (acked=%d)", len(events), acked)
	}
	t.Logf("disk full after %d acked events", acked)

	// Sticky: the next write is rejected at the gate too.
	if _, err := vc.PostEvents(ctx, []client.Event{events[acked]}); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("second write during disk-full = %v, want ErrReadOnly", err)
	}

	// Reads keep serving, and readiness reports the degraded mode without
	// going unready — load balancers should keep routing queries here.
	if _, err := vc.RiskTop(ctx, 3, base.Add(time.Hour)); err != nil {
		t.Fatalf("read during read-only mode failed: %v", err)
	}
	var ready struct {
		Status string `json:"status"`
	}
	body, err := vc.Get(ctx, "/readyz")
	if err != nil {
		t.Fatalf("readyz during read-only: %v", err)
	}
	if json.Unmarshal(body, &ready); ready.Status != "read-only" {
		t.Errorf("readyz status = %q, want read-only; body: %s", ready.Status, body)
	}

	// Operator frees space. The next upkeep round probes and clears the
	// latch, /readyz says so, and ingest resumes — no restart.
	if err := os.WriteFile(clearFile, []byte("ok"), 0o644); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ready.Status != "ready"; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("readyz still %q 10s after space was freed", ready.Status)
		}
		if body, err = vc.Get(ctx, "/readyz"); err != nil {
			t.Fatalf("readyz while recovering: %v", err)
		}
		json.Unmarshal(body, &ready)
	}
	extra := 3
	for i := acked; i < acked+extra; i++ {
		res, err := vc.PostEvents(ctx, []client.Event{events[i]})
		if err != nil || res.Accepted != 1 {
			t.Fatalf("post-recovery event %d: %+v, %v", i, res, err)
		}
	}
	total := acked + extra
	body, err = vc.Get(ctx, "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if json.Unmarshal(body, &ready); ready.Status != "ready" {
		t.Errorf("recovered readyz status = %q, want ready; body: %s", ready.Status, body)
	}

	// SIGKILL mid-service, then recover over the same WAL directory with no
	// fault injection — the durable record must hold exactly the acked set.
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()

	addr2 := freeAddr(t)
	_, rc := startServe(t, bin,
		"-data", dataDir, "-addr", addr2,
		"-wal", walDir, "-wal-fsync", "always", "-snapshot-every", "0")

	// Uninterrupted twin fed exactly the acked events.
	addr3 := freeAddr(t)
	_, tc := startServe(t, bin, "-data", dataDir, "-addr", addr3)
	for i, e := range events[:total] {
		res, err := tc.PostEvents(ctx, []client.Event{e})
		if err != nil || res.Accepted != 1 {
			t.Fatalf("twin event %d: %+v, %v", i, res, err)
		}
	}

	recoveredSnap, err := rc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	twinSnap, err := tc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(recoveredSnap) != string(twinSnap) {
		t.Errorf("recovered snapshot differs from twin:\n%s\nvs\n%s", recoveredSnap, twinSnap)
	}

	at := base.Add(40 * time.Minute)
	recoveredTop, err := rc.RiskTop(ctx, 5, at)
	if err != nil {
		t.Fatal(err)
	}
	twinTop, err := tc.RiskTop(ctx, 5, at)
	if err != nil {
		t.Fatal(err)
	}
	if string(recoveredTop) != string(twinTop) {
		t.Errorf("recovered risk ranking differs:\n%s\nvs\n%s", recoveredTop, twinTop)
	}
}
