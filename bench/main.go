// Command bench is hpcfail's end-to-end benchmark. It boots hpcserve as a
// separate process over a seeded decade-scale catalog, drives it with one of
// four open-loop workloads from two keep-alive connections, checks the
// answers against a naive reference, and prints every metric with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench [-workload all|dashboard|live|ingest|fleet] [-seed 1] [-seconds 15]
//	      [-trace 0|1] [-trace-dir DIR] [-out report.json] [-server-bin PATH]
//	bench -summarize DIR
//
// With -trace 1 the run records client spans and replays the stream's first
// ops through an in-process server and the harness's own layer stack, and
// reports per-layer metrics instead of end-to-end ones. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"github.com/hpcfail/hpcfail/internal/replay"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the catalog and the op streams")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload: steady phase then peak phase")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "repository root holding cmd/hpcserve")
	traceDir := fs.String("trace-dir", "", "span output directory (default <root>/.bench_build/spans)")
	out := fs.String("out", "", "also write the full report, with sample counts and digests, to this file")
	serverBin := fs.String("server-bin", "", "hpcserve binary to run (default: build <root>/cmd/hpcserve)")
	summarize := fs.String("summarize", "", "summarize a compare.sh results directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if *summarize != "" {
		if err := summarizeDir(*summarize, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	var selected []*workload
	if *wlName == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*wlName); ok {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *wlName)
		return 2
	}
	// The generator is held to two threads to match its two connections.
	runtime.GOMAXPROCS(2)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reps, err := runAll(ctx, *root, *serverBin, *traceDir, *seed, *seconds, *traced == 1, selected)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(reps, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: writing report:", err)
			return 1
		}
	}
	line, ok := printReports(stdout, reps)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func runAll(ctx context.Context, root, serverBin, traceDir string, seed int64, seconds float64, traced bool, selected []*workload) ([]*report, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	p, err := loadPins(filepath.Join(root, "bench", "inputs.json"))
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	if serverBin == "" {
		serverBin = filepath.Join(work, "hpcserve")
		cmd := exec.CommandContext(ctx, "go", "build", "-o", serverBin, "./cmd/hpcserve")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building hpcserve: %v\n%s", err, out)
		}
	}
	if traceDir == "" {
		traceDir = filepath.Join(build, "spans")
	}
	cfg := &config{
		boot: processBoot(serverBin, work), work: work, catalog: replay.CatalogDecade,
		seed: seed, seconds: seconds, trace: traced, traceDir: traceDir, passOps: pinnedOps, pins: p,
	}
	var reps []*report
	for _, w := range selected {
		rep, err := runWorkload(ctx, cfg, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func printMetric(w io.Writer, workload, tag string, m metric) {
	n := ""
	if m.N > 0 {
		n = fmt.Sprintf("  (n=%d)", m.N)
	}
	fmt.Fprintf(w, "%-10s %5s%-30s %14.4f %-6s%s\n", workload, tag, m.Name, m.Value, m.Unit, n)
}

// result line types: the last stdout line's schema.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// printReports prints every metric with its unit and sample count, then
// returns the JSON result line: one workload's metrics by name, or with
// several workloads each metric prefixed by its workload.
func printReports(w io.Writer, reps []*report) (string, bool) {
	line := resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	for _, r := range reps {
		for _, m := range r.Metrics {
			printMetric(w, r.Workload, "", m)
			name := m.Name
			if len(reps) > 1 {
				name = r.Workload + "." + name
			}
			line.Metrics[name] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
		for _, m := range r.Info {
			printMetric(w, r.Workload, "info ", m)
		}
		for _, p := range r.Problems {
			fmt.Fprintf(w, "%-10s PROBLEM %s\n", r.Workload, p)
		}
		fmt.Fprintf(w, "%-10s attempted %d, failed %d, correct %v, digests %v\n", r.Workload, r.Attempted, r.Failed, r.Correct, r.Digests)
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	b, err := json.Marshal(line)
	if err != nil {
		// lineMetric holds plain floats; only NaN or Inf can fail here.
		return "", false
	}
	return string(b), line.Correct
}
