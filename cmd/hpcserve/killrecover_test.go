package main

import (
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail"
	"github.com/hpcfail/hpcfail/internal/client"
)

// buildServeBinary compiles the hpcserve binary into dir. The go build
// cache makes repeat runs cheap.
func buildServeBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hpcserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building hpcserve: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a port and releases it for a subprocess to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startServe launches the binary and waits until it answers /healthz.
func startServe(t *testing.T, bin string, args ...string) (*exec.Cmd, *client.Client) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	var addr string
	for i, a := range args {
		if a == "-addr" {
			addr = args[i+1]
		}
	}
	c, err := client.New(client.Config{BaseURL: "http://" + addr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := c.Healthz(ctx); err == nil {
			return cmd, c
		}
		if time.Now().After(deadline) {
			t.Fatalf("server on %s never came up", addr)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestKillAndRecover is the crash-recovery acceptance test: SIGKILL a live
// journaled hpcserve mid-ingest (then tear the WAL tail for good measure),
// restart over the same WAL directory, and require the recovered server's
// /v1/snapshot and pinned /v1/risk/top to be byte-identical to an
// uninterrupted server fed exactly the acked events.
func TestKillAndRecover(t *testing.T) {
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

	// A deterministic event feed inside the catalog, timestamped in the
	// recent past so ingest-time validation accepts it.
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
	addr1 := freeAddr(t)
	ctx := context.Background()

	// Victim: fsync=always so every acked event is durable, snapshots off
	// so recovery exercises pure WAL replay.
	victim, vc := startServe(t, bin,
		"-data", dataDir, "-addr", addr1,
		"-wal", walDir, "-wal-fsync", "always", "-snapshot-every", "0")
	for i, e := range events {
		res, err := vc.PostEvents(ctx, []client.Event{e})
		if err != nil || res.Accepted != 1 {
			t.Fatalf("event %d: %+v, %v", i, res, err)
		}
	}
	// SIGKILL mid-service: no shutdown hooks, no final sync, no snapshot.
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()

	// Simulate the torn in-flight write a real crash leaves behind:
	// garbage appended past the last fsynced record must be truncated on
	// recovery, never half-replayed.
	segs, err := filepath.Glob(filepath.Join(walDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", walDir, err)
	}
	last := segs[len(segs)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, append(raw, "\x9d\x07torn\xff\x00\x13\x37!"...), 0o644); err != nil {
		t.Fatal(err)
	}

	// Recovered server over the same WAL dir.
	addr2 := freeAddr(t)
	_, rc := startServe(t, bin,
		"-data", dataDir, "-addr", addr2,
		"-wal", walDir, "-wal-fsync", "always", "-snapshot-every", "0")

	// Uninterrupted twin: no WAL, fed exactly the acked events.
	addr3 := freeAddr(t)
	_, tc := startServe(t, bin, "-data", dataDir, "-addr", addr3)
	for i, e := range events {
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
		t.Errorf("recovered snapshot differs from uninterrupted twin:\n%s\nvs\n%s", recoveredSnap, twinSnap)
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
