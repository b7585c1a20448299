package main

import (
	"encoding/json"
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
	kernels := 0
	for _, r := range rep.Results {
		if r.Iters <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: degenerate measurement %+v", r.Name, r)
		}
		if r.Group == "kernel" {
			kernels++
		}
		if r.Group == "e2e" {
			t.Errorf("%s: end-to-end bench must not run in -quick mode", r.Name)
		}
	}
	if kernels != len(rep.Speedups) {
		t.Errorf("%d kernel benches but %d speedups", kernels, len(rep.Speedups))
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
