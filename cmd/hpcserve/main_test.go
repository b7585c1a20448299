package main

import (
	"compress/gzip"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail"
)

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-window", "-1h"},
		{"-window", "0"},
		{"stray-arg"},
		{"-data", filepath.Join(t.TempDir(), "nope")},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestCorrelationWindowsShareQueryRange: -correlation-windows parses with
// the query vocabulary, so a window no /v1/correlations query can ask for
// fails at boot instead of being mined for nothing, and a window name in
// any case is accepted as it is by the API.
func TestCorrelationWindowsShareQueryRange(t *testing.T) {
	// The missing -data dir fails the boot later, so only a parse error
	// names the flag.
	err := run([]string{"-correlation-windows", "day,100000h", "-data", filepath.Join(t.TempDir(), "nope")})
	if err == nil || !strings.Contains(err.Error(), "-correlation-windows") {
		t.Errorf("-correlation-windows 100000h: %v, want a parse error (/v1/correlations answers 400 for it)", err)
	}
	ws, err := parseWindowList("Week, 48h")
	if err != nil || len(ws) != 2 || ws[0] != hpcfail.Week || ws[1] != 48*time.Hour {
		t.Errorf(`parseWindowList("Week, 48h") = %v, %v`, ws, err)
	}
}

func TestRunVersion(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatalf("-version: %v", err)
	}
}

// TestRunServesAndStopsOnInterrupt drives the whole binary body: generate a
// dataset to disk, serve it on a free port under -cpuprofile and
// -memprofile, hit the API, then deliver a SIGINT and watch run return
// cleanly with both profiles written.
func TestRunServesAndStopsOnInterrupt(t *testing.T) {
	dir := saveDataset(t)
	cpu := filepath.Join(t.TempDir(), "cpu.out")
	mem := filepath.Join(t.TempDir(), "mem.out")
	serveUntilInterrupt(t, []string{"-data", dir, "-window", "24h", "-cpuprofile", cpu, "-memprofile", mem}, func(url string) {
		resp, err := http.Get(url + "/v1/risk/top?k=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("risk/top = %d", resp.StatusCode)
		}
	})
	// A CPU profile is completed when profiling stops, so a whole gzip
	// stream shows the shutdown path flushed it.
	for _, path := range []string{cpu, mem} {
		if err := readGzip(path); err != nil {
			t.Errorf("profile %s after SIGINT: %v", filepath.Base(path), err)
		}
	}
}

// TestServesDespiteGarbageUnservedTables: hpcserve reads only the served
// tables, so a dataset whose temps.csv and jobs.csv are garbage boots under
// -strictness strict, and its validation report names neither file
// (hpcanalyze's TestStrictRefusesGarbageUnservedTables is the other half).
func TestServesDespiteGarbageUnservedTables(t *testing.T) {
	dir := saveDataset(t)
	for _, name := range []string{"temps.csv", "jobs.csv"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not,a\ntable\n\x00\xff"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = stderr }()
	logged := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		logged <- b
	}()
	serveUntilInterrupt(t, []string{"-data", dir, "-strictness", "strict"}, func(url string) {
		resp, err := http.Get(url + "/v1/risk/top?k=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("risk/top = %d", resp.StatusCode)
		}
	})
	os.Stderr = stderr
	w.Close()
	log := <-logged
	for _, name := range []string{"temps.csv", "jobs.csv", "maintenance.csv", "neutrons.csv"} {
		if strings.Contains(string(log), name) {
			t.Errorf("hpcserve reported on %s, which it does not serve; stderr:\n%s", name, log)
		}
	}
}

// saveDataset generates a small dataset into a fresh directory.
func saveDataset(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	ds, err := hpcfail.Generate(hpcfail.GenerateOptions{Seed: 7, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := hpcfail.SaveDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	return dir
}

// serveUntilInterrupt runs the command with args on a free port, calls
// probe with its base URL once /healthz answers, then delivers a SIGINT and
// requires run to return nil.
func serveUntilInterrupt(t *testing.T, args []string, probe func(url string)) {
	t.Helper()
	// Reserve a free port, then release it for the command to bind.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run(append(args, "-addr", addr))
	}()

	url := "http://" + addr
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	probe(url)

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGINT, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after SIGINT")
	}
}

// readGzip reads the gzip stream a pprof profile is stored as to its end.
func readGzip(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, zr)
	return err
}
