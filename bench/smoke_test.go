package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/replay"
)

// inProcessBoot boots the server under test inside the test binary, built
// exactly as the traced pass builds it.
func inProcessBoot(work string) bootFunc {
	return func(_ context.Context, in *inputs, w *workload, i int) (*booted, time.Duration, error) {
		start := time.Now()
		walDir := filepath.Join(work, fmt.Sprintf("wal-%d", i))
		if err := os.RemoveAll(walDir); err != nil { // a fresh WAL, as startServer gives hpcserve
			return nil, 0, err
		}
		s, err := buildServer(in.bootDir, w, walDir)
		if err != nil {
			return nil, 0, err
		}
		ts := httptest.NewServer(s.Handler())
		stop := func() error {
			ts.Close()
			return s.Close()
		}
		return &booted{base: ts.URL, pid: os.Getpid(), stop: stop}, time.Since(start), nil
	}
}

// A one-second run of every workload on the quick catalog must pass every
// correctness check and report every metric.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server per workload")
	}
	t.Parallel()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			work := t.TempDir()
			cfg := &config{boot: inProcessBoot(work), work: work, catalog: replay.CatalogQuick, seed: 1, seconds: 1}
			rep, err := runWorkload(context.Background(), cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("correct %v, failed %d of %d: %v", rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
			}
			got := map[string]bool{}
			for _, m := range rep.Metrics {
				got[m.Name] = true
			}
			for _, name := range []string{"setup_s", "peak_ops_s", "rss_mb"} {
				if !got[name] {
					t.Errorf("metric %s missing", name)
				}
			}
		})
	}
}

// The traced run replays the stream through an in-process server and the
// harness's layer stack; their answers must agree op by op. Two workloads
// run in turn under one config, as -workload all runs them, so neither may
// start from state the other left behind.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server and a layer stack")
	}
	t.Parallel() // beside TestSmokeWorkloads, whose open-loop phases leave the CPU idle
	work := t.TempDir()
	cfg := &config{boot: inProcessBoot(work), work: work, catalog: replay.CatalogQuick, seed: 1, seconds: 1, trace: true, traceDir: work, passOps: 600}
	for _, name := range []string{"dashboard", "fleet"} {
		w, _ := workloadByName(name)
		rep, err := runWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct {
			t.Fatalf("%s: traced run incorrect: %v", name, rep.Problems)
		}
		if _, err := os.Stat(filepath.Join(work, name+".spans.jsonl")); err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, m := range rep.Metrics {
			got[m.Name] = true
		}
		for _, metric := range []string{"analysis.condprob_us.rack", "journal.observe_us.p99", "server.self_us.condprob", "setup.load_ms", "server.cache_hit_ratio.anomalies"} {
			if !got[metric] {
				t.Errorf("%s: per-layer metric %s missing", name, metric)
			}
		}
	}
}
