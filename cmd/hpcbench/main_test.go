package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunQuickEmitsReport exercises the whole harness end to end at a tiny
// scale: every bench runs, the JSON report parses, and each indexed/naive
// pair produced a speedup entry.
func TestRunQuickEmitsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the measurement loops")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-scale", "0.05", "-seed", "2", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Quick || rep.Scale != 0.05 || rep.Seed != 2 {
		t.Errorf("report header = %+v", rep)
	}
	if len(rep.Results) == 0 || len(rep.Speedups) == 0 {
		t.Fatalf("empty report: %d results, %d speedups", len(rep.Results), len(rep.Speedups))
	}
	// Every indexed kernel has a naive twin and a speedup, and so does the
	// served boot load against the full one; standalone kernel rows (no
	// naive twin) carry no /indexed suffix.
	kernels, refs := 0, 0
	for _, r := range rep.Results {
		if r.Iters <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: degenerate measurement %+v", r.Name, r)
		}
		if r.Group == "kernel" && (strings.HasSuffix(r.Name, "/indexed") || r.Name == "boot/load-served") {
			kernels++
		}
		if r.Group == "naive" {
			refs++
		}
		if r.Group == "e2e" {
			t.Errorf("%s: end-to-end bench must not run in -quick mode", r.Name)
		}
	}
	if kernels != len(rep.Speedups) || refs != len(rep.Speedups) {
		t.Errorf("%d kernel benches and %d references but %d speedups", kernels, refs, len(rep.Speedups))
	}
}

func TestBenchFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the measurement loops")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-scale", "0.05", "-bench", "^server/", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if !strings.HasPrefix(r.Name, "server/") {
			t.Errorf("filter leaked %s", r.Name)
		}
	}
}

func reportOf(results []BenchResult, speedups []Speedup) *Report {
	return &Report{Results: results, Speedups: speedups}
}

func TestCheckRegression(t *testing.T) {
	base := reportOf([]BenchResult{
		{Name: "condprob/a/indexed", Group: "kernel", NsPerOp: 1000},
		{Name: "condprob/a/naive", Group: "naive", NsPerOp: 9000},
	}, nil)
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	within := reportOf([]BenchResult{{Name: "condprob/a/indexed", Group: "kernel", NsPerOp: 1200}}, nil)
	if err := checkRegression(within, path, 0.25); err != nil {
		t.Errorf("within tolerance: %v", err)
	}
	over := reportOf([]BenchResult{{Name: "condprob/a/indexed", Group: "kernel", NsPerOp: 1300}}, nil)
	if err := checkRegression(over, path, 0.25); err == nil {
		t.Error("30% regression must fail at 25% tolerance")
	}
	// Naive entries are the frozen reference, not gated: a slow naive run
	// must not fail the gate, but zero overlap on kernels must.
	if err := checkRegression(reportOf(nil, nil), path, 0.25); err == nil {
		t.Error("no kernel benches in common must fail")
	}
	// Benches in allocCeilings are gated on allocs/op in the same pass.
	kernel := BenchResult{Name: "condprob/a/indexed", Group: "kernel", NsPerOp: 1000}
	lean := reportOf([]BenchResult{kernel, {Name: "risk/topk-10", Group: "macro", AllocsPerOp: 140}}, nil)
	if err := checkRegression(lean, path, 0.25); err != nil {
		t.Errorf("under the alloc ceiling: %v", err)
	}
	fat := reportOf([]BenchResult{kernel, {Name: "risk/topk-10", Group: "macro", AllocsPerOp: 21034}}, nil)
	if err := checkRegression(fat, path, 0.25); err == nil {
		t.Error("risk/topk-10 over its alloc ceiling must fail")
	}
	perNode := reportOf([]BenchResult{kernel, {Name: "anomalies/fleet-k10/indexed", Group: "kernel", AllocsPerOp: 46774}}, nil)
	if err := checkRegression(perNode, path, 0.25); err == nil {
		t.Error("anomalies/fleet-k10/indexed over its alloc ceiling must fail")
	}
	// The CondProb kernels allocate only per-query scratch; a per-anchor
	// allocation (thousands per op) must trip their ceiling.
	for _, name := range []string{"condprob/hw-any/rack/indexed", "condprob/any-any/system-month"} {
		perAnchor := reportOf([]BenchResult{kernel, {Name: name, Group: "kernel", AllocsPerOp: 5000}}, nil)
		if err := checkRegression(perAnchor, path, 0.25); err == nil {
			t.Errorf("%s over its alloc ceiling must fail", name)
		}
		scratch := reportOf([]BenchResult{kernel, {Name: name, Group: "kernel", AllocsPerOp: 8}}, nil)
		if err := checkRegression(scratch, path, 0.25); err != nil {
			t.Errorf("%s under its alloc ceiling: %v", name, err)
		}
	}
	// The write path is gated on bytes/op: a one-event append that clones
	// a system's posting maps again (~189 KB/op) must trip its ceiling.
	for _, w := range []BenchResult{{Name: "store-append/event", Group: "kernel"}, {Name: "server/ingest-http/wal-never", Group: "server"}} {
		w.BytesPerOp = 189 << 10
		if err := checkRegression(reportOf([]BenchResult{kernel, w}, nil), path, 0.25); err == nil {
			t.Errorf("%s over its bytes ceiling must fail", w.Name)
		}
		w.BytesPerOp = 16 << 10
		if err := checkRegression(reportOf([]BenchResult{kernel, w}, nil), path, 0.25); err != nil {
			t.Errorf("%s under its bytes ceiling: %v", w.Name, err)
		}
	}
}

func TestCheckSpeedups(t *testing.T) {
	rep := reportOf(nil, []Speedup{
		{Name: "condprob/a", Speedup: 3.2},
		{Name: "condprob/b", Speedup: 1.1},
	})
	if err := checkSpeedups(rep, 1.0); err != nil {
		t.Errorf("all above 1.0: %v", err)
	}
	if err := checkSpeedups(rep, 1.5); err == nil {
		t.Error("1.1x must fail a 1.5x floor")
	}
}

func TestJudgePairs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// runs writes one report per ns/op value of kernel "condprob/a".
	runs := func(prefix string, allocs float64, ns ...float64) string {
		var paths []string
		for i, v := range ns {
			rep := reportOf([]BenchResult{
				{Name: "condprob/a/indexed", Group: "kernel", NsPerOp: v},
				{Name: "condprob/a/naive", Group: "naive", NsPerOp: 9000},
				{Name: "risk/topk-10", Group: "macro", NsPerOp: 100, AllocsPerOp: allocs},
			}, []Speedup{{Name: "condprob/a", Speedup: 9000 / v}})
			paths = append(paths, write(fmt.Sprintf("%s-%d.json", prefix, i), rep))
		}
		return strings.Join(paths, ",")
	}
	base := runs("base", 71, 1000, 1100, 900)
	if err := judgePairs(base, runs("same", 71, 1050, 1000, 950), 0.25); err != nil {
		t.Errorf("untouched change: %v", err)
	}
	// One noisy pair does not move the median ratio.
	if err := judgePairs(base, runs("noisy", 71, 3000, 1100, 900), 0.25); err != nil {
		t.Errorf("one noisy pair: %v", err)
	}
	if err := judgePairs(base, runs("slow", 71, 2000, 2200, 1800), 0.25); err == nil {
		t.Error("a 2x slowdown in every pair must fail")
	}
	if err := judgePairs(base, runs("fat", 21034, 1000, 1100, 900), 0.25); err == nil {
		t.Error("median allocs over a ceiling must fail")
	}
	if err := judgePairs(base, runs("short", 71, 1000), 0.25); err == nil {
		t.Error("unequal pair counts must fail")
	}
}
