// Command hpcbench is the repeatable performance harness of the toolkit:
// kernel micro-benchmarks pitting the indexed analysis core against the
// frozen naive reference, macro benchmarks over the lift table and risk
// engine, the end-to-end experiment suite, and server throughput over
// httptest — all emitted as machine-readable JSON (BENCH_results.json).
//
// Usage:
//
//	hpcbench                      full run at scale 1, JSON on stdout
//	hpcbench -quick               shorter measurements, skips end-to-end
//	hpcbench -out BENCH_results.json
//	hpcbench -baseline BENCH_results.json -tolerance 0.25
//	                              regression gate: fail (exit 1) when any
//	                              kernel bench is >25% slower than baseline
//	hpcbench -min-speedup 1.5     fail unless every indexed/naive pair keeps
//	                              at least this speedup
//	hpcbench -bench 'condprob/.*' -cpuprofile cpu.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/cli"
	"github.com/hpcfail/hpcfail/internal/correlate"
	"github.com/hpcfail/hpcfail/internal/experiments"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/server"
	"github.com/hpcfail/hpcfail/internal/simulate"
	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

func main() {
	cli.Main("hpcbench", run)
}

// BenchResult is one benchmark's measurement.
type BenchResult struct {
	// Name identifies the benchmark ("condprob/hw-hw/node/indexed", ...).
	Name string `json:"name"`
	// Group classifies it: "kernel" results gate CI regressions, "naive"
	// are the frozen reference implementations, "macro"/"e2e"/"server" are
	// informational except for the allocs/op ceilings in allocCeilings.
	Group       string  `json:"group"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Speedup compares one indexed kernel against its naive reference from the
// same run on the same machine.
type Speedup struct {
	Name      string  `json:"name"`
	NaiveNs   float64 `json:"naive_ns"`
	IndexedNs float64 `json:"indexed_ns"`
	Speedup   float64 `json:"speedup"`
}

// Report is the JSON document hpcbench emits (committed as
// BENCH_results.json at the repo root).
type Report struct {
	Seed       int64         `json:"seed"`
	Scale      float64       `json:"scale"`
	Quick      bool          `json:"quick"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []BenchResult `json:"results"`
	Speedups   []Speedup     `json:"speedups"`
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("hpcbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shorter measurement windows and no end-to-end suite (CI mode)")
	seed := fs.Int64("seed", 1, "dataset seed")
	scale := fs.Float64("scale", 1, "dataset scale (1 = full synthetic catalog)")
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	baseline := fs.String("baseline", "", "compare kernel benches against this committed report and fail on regression")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional ns/op regression vs -baseline before failing")
	minSpeedup := fs.Float64("min-speedup", 0, "fail unless every indexed/naive speedup is at least this (0 disables)")
	benchRe := fs.String("bench", "", "only run benchmarks whose name matches this regexp")
	reports := fs.String("reports", "", "judge these comma-separated reports instead of running: the change's side of interleaved same-host runs, against -base-reports")
	baseReports := fs.String("base-reports", "", "with -reports: the base revision's reports, the i-th run beside the i-th of -reports")
	versionOf := cli.VersionFlag(fs, "hpcbench")
	profileOf := cli.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if versionOf() {
		return nil
	}
	if *reports != "" {
		return judgePairs(*baseReports, *reports, *tolerance)
	}
	stopProf, err := profileOf()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	var filter *regexp.Regexp
	if *benchRe != "" {
		if filter, err = regexp.Compile(*benchRe); err != nil {
			return cli.Usagef("-bench: %v", err)
		}
	}

	ds, err := simulate.Generate(simulate.Options{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	b := &bencher{
		minTime: 300 * time.Millisecond,
		filter:  filter,
		report: Report{
			Seed:       *seed,
			Scale:      *scale,
			Quick:      *quick,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	if *quick {
		b.minTime = 40 * time.Millisecond
	}

	a := analysis.New(ds)
	b.kernelBenches(a, ds)
	b.indexAppendBench(ds)
	b.storeAppendBench(ds)
	b.correlateMineBench(ds)
	b.anomaliesBench(a)
	b.macroBenches(a, ds)
	if !*quick {
		b.endToEnd(ds)
	}
	if err := b.serverBench(ds); err != nil {
		return err
	}
	if err := b.serveIngestBench(ds); err != nil {
		return err
	}

	if err := writeReport(*out, &b.report); err != nil {
		return err
	}
	printTable(os.Stderr, &b.report)
	if *minSpeedup > 0 {
		if err := checkSpeedups(&b.report, *minSpeedup); err != nil {
			return err
		}
	}
	if *baseline != "" {
		if err := checkRegression(&b.report, *baseline, *tolerance); err != nil {
			return err
		}
	}
	return nil
}

// bencher accumulates measurements into the report.
type bencher struct {
	minTime time.Duration
	filter  *regexp.Regexp
	report  Report
}

// measureReps repeats the final measured batch and keeps the fastest run.
// Scheduler interference only ever adds time, so min-of-N is a far more
// stable estimator than a single shot on shared/virtualized hardware —
// without it the 25% regression gate trips on noisy-neighbor jitter.
const measureReps = 3

// measure runs fn in growing batches until one batch lasts at least minTime,
// then re-times that batch measureReps times and records the fastest run's
// ns/op and per-op allocation deltas from runtime.MemStats.
// A warmup call precedes measurement so one-time lazy work is not billed.
func (b *bencher) measure(name, group string, fn func()) {
	if b.filter != nil && !b.filter.MatchString(name) {
		return
	}
	fn() // warmup
	var n int64 = 1
	for {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := int64(0); i < n; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed >= b.minTime || n >= 1e9 {
			best := BenchResult{
				Name:        name,
				Group:       group,
				Iters:       n,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
				AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
				BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
			}
			for rep := 1; rep < measureReps; rep++ {
				runtime.ReadMemStats(&before)
				start = time.Now()
				for i := int64(0); i < n; i++ {
					fn()
				}
				elapsed = time.Since(start)
				runtime.ReadMemStats(&after)
				if ns := float64(elapsed.Nanoseconds()) / float64(n); ns < best.NsPerOp {
					best.NsPerOp = ns
					best.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(n)
					best.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
				}
			}
			b.report.Results = append(b.report.Results, best)
			return
		}
		// Grow toward minTime like testing.B: predict with 20% headroom,
		// at least double, at most 100x.
		next := n * 2
		if elapsed > 0 {
			if predicted := int64(1.2 * float64(n) * float64(b.minTime) / float64(elapsed)); predicted > next {
				next = predicted
			}
		}
		if next > n*100 {
			next = n * 100
		}
		n = next
	}
}

// measureOnce times a single execution (after one warmup would be too
// expensive) — used for the end-to-end suite.
func (b *bencher) measureOnce(name, group string, fn func()) {
	if b.filter != nil && !b.filter.MatchString(name) {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	b.report.Results = append(b.report.Results, BenchResult{
		Name:        name,
		Group:       group,
		Iters:       1,
		NsPerOp:     float64(elapsed.Nanoseconds()),
		AllocsPerOp: float64(after.Mallocs - before.Mallocs),
		BytesPerOp:  float64(after.TotalAlloc - before.TotalAlloc),
	})
}

// pair measures the indexed and naive variants of one kernel and records
// their speedup.
func (b *bencher) pair(name string, indexed, naive func()) {
	b.measure(name+"/indexed", "kernel", indexed)
	b.measure(name+"/naive", "naive", naive)
	iNs, iOK := b.lookup(name + "/indexed")
	nNs, nOK := b.lookup(name + "/naive")
	if !iOK || !nOK || iNs <= 0 {
		return
	}
	b.report.Speedups = append(b.report.Speedups, Speedup{
		Name:      name,
		NaiveNs:   nNs,
		IndexedNs: iNs,
		Speedup:   nNs / iNs,
	})
}

func (b *bencher) lookup(name string) (float64, bool) {
	for _, r := range b.report.Results {
		if r.Name == name {
			return r.NsPerOp, true
		}
	}
	return 0, false
}

// kernelBenches pits the indexed CondProb/Baseline kernels against the
// frozen naive reference across predicate shapes and scopes.
func (b *bencher) kernelBenches(a *analysis.Analyzer, ds *trace.Dataset) {
	sys := ds.Systems
	hw := trace.CategoryPred(trace.Hardware)
	net := trace.CategoryPred(trace.Network)
	sw := trace.CategoryPred(trace.Software)
	mem := trace.HWPred(trace.Memory)
	cases := []struct {
		name           string
		anchor, target trace.Pred
		w              time.Duration
		scope          analysis.Scope
	}{
		{"condprob/any-any/node", nil, nil, trace.Week, analysis.ScopeNode},
		{"condprob/hw-any/node", hw, nil, trace.Week, analysis.ScopeNode},
		{"condprob/hw-hw/node", hw, hw, trace.Week, analysis.ScopeNode},
		{"condprob/mem-mem/node", mem, mem, trace.Day, analysis.ScopeNode},
		{"condprob/hw-any/rack", hw, nil, trace.Week, analysis.ScopeRack},
		{"condprob/net-sw/system", net, sw, trace.Week, analysis.ScopeSystem},
	}
	for _, c := range cases {
		c := c
		b.pair(c.name,
			func() { a.CondProb(sys, c.anchor, c.target, c.w, c.scope) },
			func() { a.CondProbNaive(sys, c.anchor, c.target, c.w, c.scope) },
		)
	}
	// The per-anchor rescan's worst case: every event an anchor, a month
	// of window, every other node a trial. Its naive twin runs for seconds,
	// so it is timed alone.
	b.measure("condprob/any-any/system-month", "kernel", func() {
		a.CondProb(sys, nil, nil, trace.Month, analysis.ScopeSystem)
	})
	b.pair("baseline/any/week",
		func() { a.BaselineNodeProb(sys, trace.Week, nil) },
		func() { a.BaselineNodeProbNaive(sys, trace.Week, nil) },
	)
}

// indexAppendBench pits incremental index maintenance — the versioned
// dataset store's append path — against rebuilding the dataset index from
// scratch, which is what picking up new events cost before the store
// existed. One indexed op applies a 64-event tail batch with
// DatasetIndex.Append (chains of 128 batches, with the fresh-base rebuild
// that starts each chain billed to the measurement); one naive op rebuilds
// the full index over the merged dataset.
func (b *bencher) indexAppendBench(ds *trace.Dataset) {
	const (
		chainLen  = 128
		batchSize = 64
	)
	batches, merged := tailBatches(ds, chainLen, batchSize)

	i := 0
	var head *analysis.DatasetIndex
	b.pair("index-append/batch-64",
		func() {
			if i%chainLen == 0 {
				head = analysis.NewDatasetIndex(ds)
			}
			head = head.Append(merged, batches[i%chainLen])
			i++
		},
		func() { analysis.NewDatasetIndex(merged) },
	)
}

// storeAppendBench times the write path one journaled event pays: a
// one-event store.Append (validation, the copy-on-write dataset merge and
// the analyzer's index append), chained like index-append with the fresh
// store that starts each chain billed to the measurement. It has no naive
// twin; the kernel regression gate pins it.
func (b *bencher) storeAppendBench(ds *trace.Dataset) {
	const chainLen = 4096
	batches, _ := tailBatches(ds, chainLen, 1)

	i := 0
	var st *store.Store
	b.measure("store-append/event", "kernel", func() {
		if i%chainLen == 0 {
			seed := *ds
			seed.Failures = append([]trace.Failure(nil), ds.Failures...)
			var err error
			if st, err = store.New(&seed); err != nil {
				panic(err)
			}
		}
		if _, err := st.Append(batches[i%chainLen]); err != nil {
			panic(err)
		}
		i++
	})
}

// correlateMineBench pits the incremental correlation miner — one store
// append followed by a Mine that folds in only the tail — against
// re-mining the merged dataset from scratch, which is what refreshing the
// rule graph cost before the miner tracked store versions. As in
// index-append, the fresh store+miner that starts each chain is billed to
// the measurement.
func (b *bencher) correlateMineBench(ds *trace.Dataset) {
	const (
		chainLen  = 128
		batchSize = 64
	)
	batches, merged := tailBatches(ds, chainLen, batchSize)

	i := 0
	var (
		st    *store.Store
		miner *correlate.Miner
	)
	b.pair("correlate-mine/batch-64",
		func() {
			if i%chainLen == 0 {
				// The store takes ownership of its seed, so each chain seeds
				// from a fresh copy of the boot failures.
				seed := *ds
				seed.Failures = append([]trace.Failure(nil), ds.Failures...)
				var err error
				if st, err = store.New(&seed); err != nil {
					panic(err)
				}
				miner = correlate.NewMiner(st, trace.Week)
			}
			if _, err := st.Append(batches[i%chainLen]); err != nil {
				panic(err)
			}
			if _, _, ok := miner.Mine(trace.Week); !ok {
				panic("hpcbench: week window not maintained by miner")
			}
			i++
		},
		func() { correlate.MineNaive(merged, trace.Week) },
	)
}

// anomaliesBench pits the vicinity detector — position classes and racks
// sorted once per system, median and MAD selected by rank — against the
// frozen reference that walks the layout and sorts twice per node, both
// ranking the whole fleet for the top 10.
func (b *bencher) anomaliesBench(a *analysis.Analyzer) {
	b.pair("anomalies/fleet-k10",
		func() { correlate.DetectAnomalies(a, nil, 10) },
		func() { correlate.DetectAnomaliesNaive(a, nil, 10) },
	)
}

// tailBatches builds chainLen single-system batches of batchSize events
// starting one second past the dataset's end — one system per batch
// because failure bursts cluster on a machine, and the journal's live path
// appends single-system batches, so the copy-on-write cost of one append
// is one system's posting maps. It also returns the merged dataset every
// chain of appends converges to, which the naive references recompute
// wholesale.
func tailBatches(ds *trace.Dataset, chainLen, batchSize int) ([][]trace.Failure, *trace.Dataset) {
	cats := []struct {
		cat trace.Category
		hw  trace.HWComponent
	}{{trace.Hardware, trace.CPU}, {trace.Software, 0}, {trace.Network, 0}, {trace.Human, 0}}
	at := datasetEnd(ds)
	batches := make([][]trace.Failure, chainLen)
	for bi := range batches {
		sys := ds.Systems[bi%len(ds.Systems)]
		batch := make([]trace.Failure, batchSize)
		for i := range batch {
			at = at.Add(time.Second)
			c := cats[i%len(cats)]
			batch[i] = trace.Failure{System: sys.ID, Node: i % sys.Nodes, Time: at, Category: c.cat, HW: c.hw}
		}
		batches[bi] = batch
	}
	merged := *ds
	merged.Failures = make([]trace.Failure, 0, len(ds.Failures)+chainLen*batchSize)
	merged.Failures = append(merged.Failures, ds.Failures...)
	for _, batch := range batches {
		merged.Failures = append(merged.Failures, batch...)
	}
	merged.Sort()
	return batches, &merged
}

// macroBenches covers the composite paths built on the kernel: lift-table
// construction and live risk scoring.
func (b *bencher) macroBenches(a *analysis.Analyzer, ds *trace.Dataset) {
	b.measure("lift/build-table/week", "macro", func() {
		if _, err := a.BuildLiftTable(ds.Systems, trace.Week); err != nil {
			panic(err)
		}
	})

	engine, err := risk.FromDataset(ds, trace.Day)
	if err != nil {
		panic(err)
	}
	end := datasetEnd(ds)
	for _, f := range ds.Failures {
		if f.Time.After(end.Add(-trace.Day)) && !f.Time.After(end) {
			if err := engine.Observe(f); err != nil {
				panic(err)
			}
		}
	}
	b.measure("risk/topk-10", "macro", func() { engine.TopK(10, end) })
}

// endToEnd times one full parallel experiment-suite run.
func (b *bencher) endToEnd(ds *trace.Dataset) {
	s := experiments.NewSuite(ds)
	b.measureOnce("experiments/suite-parallel", "e2e", func() {
		for _, r := range s.RunAllParallel(0) {
			if r.Err != nil {
				panic(fmt.Sprintf("%s: %v", r.ID, r.Err))
			}
		}
	})
}

// serverBench measures condprob request throughput against the real handler
// stack (routing, query parsing, cache, JSON encoding) via httptest. The
// query cycle revisits each distinct query, so the steady state exercises
// the cache-hit path the way a dashboard does.
func (b *bencher) serverBench(ds *trace.Dataset) error {
	srv, err := server.New(server.Config{Dataset: ds})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	queries := []string{
		"/v1/condprob?anchor=HW&window=week&scope=node",
		"/v1/condprob?anchor=HW&target=HW&window=week&scope=node",
		"/v1/condprob?anchor=NET&target=SW&window=day&scope=node",
		"/v1/condprob?anchor=SW&window=week&scope=rack",
	}
	var reqErr error
	i := 0
	b.measure("server/condprob-http", "server", func() {
		resp, err := http.Get(ts.URL + queries[i%len(queries)])
		i++
		if err != nil {
			reqErr = err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && reqErr == nil {
			reqErr = fmt.Errorf("server: %s", resp.Status)
		}
	})
	return reqErr
}

// serveIngestBench measures POST /v1/events throughput through the full
// handler stack under three durability settings: no WAL, WAL without
// fsync, and WAL with interval fsync (the production default). The spread
// between them is the price of crash-safety on the ingest path.
func (b *bencher) serveIngestBench(ds *trace.Dataset) error {
	sys := ds.Systems[0]
	configs := []struct {
		name   string
		policy wal.SyncPolicy
		wal    bool
	}{
		{"server/ingest-http/no-wal", 0, false},
		{"server/ingest-http/wal-never", wal.SyncNever, true},
		{"server/ingest-http/wal-interval", wal.SyncInterval, true},
	}
	for _, c := range configs {
		cfg := server.Config{Dataset: ds}
		if c.wal {
			dir, err := os.MkdirTemp("", "hpcbench-wal-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			cfg.ShardWAL = wal.Options{Dir: dir, Policy: c.policy}
		}
		srv, err := server.New(cfg)
		if err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		var reqErr error
		i := 0
		b.measure(c.name, "server", func() {
			body := fmt.Sprintf(`{"events":[{"system":%d,"node":%d,"category":"HW","hw":"CPU"}]}`,
				sys.ID, i%sys.Nodes)
			i++
			resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
			if err != nil {
				reqErr = err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && reqErr == nil {
				reqErr = fmt.Errorf("ingest: %s", resp.Status)
			}
		})
		ts.Close()
		srv.Close()
		if reqErr != nil {
			return reqErr
		}
	}
	return nil
}

// datasetEnd returns the latest observation-period end across systems.
func datasetEnd(ds *trace.Dataset) time.Time {
	var end time.Time
	for _, s := range ds.Systems {
		if s.Period.End.After(end) {
			end = s.Period.End
		}
	}
	return end
}

func writeReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func printTable(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "hpcbench seed=%d scale=%g quick=%v %s GOMAXPROCS=%d\n",
		rep.Seed, rep.Scale, rep.Quick, rep.GoVersion, rep.GOMAXPROCS)
	for _, r := range rep.Results {
		fmt.Fprintf(w, "  %-34s %-7s %10d iters  %14.0f ns/op  %10.0f allocs/op\n",
			r.Name, r.Group, r.Iters, r.NsPerOp, r.AllocsPerOp)
	}
	for _, s := range rep.Speedups {
		fmt.Fprintf(w, "  speedup %-28s %6.2fx  (naive %.0f ns -> indexed %.0f ns)\n",
			s.Name, s.Speedup, s.NaiveNs, s.IndexedNs)
	}
}

// speedupFloors raises the -min-speedup bar for pairs whose indexed variant
// is expected to win by far more than the global minimum. index-append
// amortizes one batch over an O(log n)-per-event extension, so even with
// the chain-restart rebuild billed in, it clears 25x comfortably (measured
// ~100-200x at scale 1; the floor leaves headroom for noisy CI hosts).
// correlate-mine folds a 64-event batch into standing pair counts instead
// of re-scanning every event window; measured ~35x in quick mode with the
// chain restarts billed in. anomalies/fleet-k10 sorts each system's
// position classes once instead of walking the layout and sorting twice per
// node; measured ~14x at scale 1. CondProb sweeps each system's anchors
// and targets once with in-window node counts instead of probing per
// anchor; measured 5-40x at node and rack scope at scale 1.
var speedupFloors = map[string]float64{
	"index-append/batch-64":   25,
	"correlate-mine/batch-64": 10,
	"anomalies/fleet-k10":     5,
	"condprob/any-any/node":   4,
	"condprob/hw-any/node":    4,
	"condprob/hw-hw/node":     4,
	"condprob/mem-mem/node":   4,
	"condprob/hw-any/rack":    4,
}

// checkSpeedups fails when any indexed kernel lost its edge over the naive
// reference in this run. The global minimum applies everywhere; pairs in
// speedupFloors must clear their higher bar.
func checkSpeedups(rep *Report, min float64) error {
	var bad []string
	for _, s := range rep.Speedups {
		need := min
		if floor, ok := speedupFloors[s.Name]; ok && floor > need {
			need = floor
		}
		if s.Speedup < need {
			bad = append(bad, fmt.Sprintf("%s: %.2fx < %.2fx", s.Name, s.Speedup, need))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("hpcbench: speedup regressions:\n  %s", joinLines(bad))
	}
	return nil
}

// allocCeilings caps allocs/op for benches whose allocation count is what
// an optimization bought; checkRegression enforces them beside the kernel
// ns/op gate. risk/topk-10 ranks every node on a scalar risk and builds
// full scores only for the 10 it returns: 71 allocs/op at scale 1, down
// from 21,034 when every node of every active system was materialized.
// The vicinity detector reuses one set of per-system buffers and allocates
// nothing per node: 147 allocs/op at scale 1, down from 46,774. The
// CondProb sweep allocates only its per-query node and rack scratch: 2-8
// allocs/op at scale 1.
var allocCeilings = map[string]float64{
	"risk/topk-10":                   500,
	"anomalies/fleet-k10/indexed":    1000,
	"condprob/any-any/node/indexed":  16,
	"condprob/hw-any/node/indexed":   16,
	"condprob/hw-hw/node/indexed":    16,
	"condprob/mem-mem/node/indexed":  16,
	"condprob/hw-any/rack/indexed":   16,
	"condprob/net-sw/system/indexed": 16,
	"condprob/any-any/system-month":  16,
}

// checkRegression compares this run's kernel benches against a committed
// baseline report and fails when any is more than tolerance slower, or
// when a bench in allocCeilings allocates more than its ceiling.
func checkRegression(rep *Report, baselinePath string, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	cur := map[string]BenchResult{}
	for _, r := range rep.Results {
		cur[r.Name] = r
	}
	var bad []string
	checked := 0
	for _, b := range base.Results {
		if b.Group != "kernel" {
			continue
		}
		c, ok := cur[b.Name]
		if !ok {
			continue // bench removed or filtered out of this run
		}
		checked++
		if c.NsPerOp > b.NsPerOp*(1+tolerance) {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (+%.0f%%, tolerance %.0f%%)",
				b.Name, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), 100*tolerance))
		}
	}
	if checked == 0 {
		return fmt.Errorf("baseline %s: no kernel benches in common with this run", baselinePath)
	}
	bad = append(bad, allocOverruns(rep)...)
	if len(bad) > 0 {
		return fmt.Errorf("hpcbench: regressions vs %s:\n  %s", baselinePath, joinLines(bad))
	}
	fmt.Fprintf(os.Stderr, "hpcbench: %d kernel benches within %.0f%% of %s\n", checked, 100*tolerance, baselinePath)
	return nil
}

// allocOverruns lists the benches of rep over their allocCeilings entry.
func allocOverruns(rep *Report) []string {
	var bad []string
	for _, r := range rep.Results {
		if ceiling, ok := allocCeilings[r.Name]; ok && r.AllocsPerOp > ceiling {
			bad = append(bad, fmt.Sprintf("%s: %.0f allocs/op over its ceiling of %.0f", r.Name, r.AllocsPerOp, ceiling))
		}
	}
	return bad
}

// judgePairs is the same-host kernel gate over interleaved runs of a base
// revision and a change: a kernel bench regresses when the median, across
// pairs, of its change-over-base ns/op ratio exceeds 1+tolerance. Pairing
// cancels the host drift that a report committed from another machine or
// day cannot. The alloc ceilings apply to the median of the change's runs.
func judgePairs(baseList, changeList string, tolerance float64) error {
	bases, err := loadReports(baseList)
	if err != nil {
		return err
	}
	changes, err := loadReports(changeList)
	if err != nil {
		return err
	}
	if len(bases) != len(changes) {
		return cli.Usagef("-base-reports has %d reports, -reports %d", len(bases), len(changes))
	}
	ratios := map[string][]float64{}
	var names []string
	for i, c := range changes {
		base := map[string]float64{}
		for _, r := range bases[i].Results {
			if r.Group == "kernel" {
				base[r.Name] = r.NsPerOp
			}
		}
		for _, r := range c.Results {
			if b := base[r.Name]; b > 0 {
				if ratios[r.Name] == nil {
					names = append(names, r.Name)
				}
				ratios[r.Name] = append(ratios[r.Name], r.NsPerOp/b)
			}
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("hpcbench: no kernel benches in common between the base and change reports")
	}
	med := medianReport(changes)
	printTable(os.Stderr, med)
	var bad []string
	for _, n := range names {
		if m := stats.Median(ratios[n]); m > 1+tolerance {
			bad = append(bad, fmt.Sprintf("%s: median paired ratio %.2f (+%.0f%%, tolerance %.0f%%) over %d pairs",
				n, m, 100*(m-1), 100*tolerance, len(ratios[n])))
		}
	}
	bad = append(bad, allocOverruns(med)...)
	if len(bad) > 0 {
		return fmt.Errorf("hpcbench: regressions vs the base revision:\n  %s", joinLines(bad))
	}
	fmt.Fprintf(os.Stderr, "hpcbench: %d kernel benches within %.0f%% of the base over %d interleaved pairs\n",
		len(names), 100*tolerance, len(changes))
	return nil
}

// loadReports reads a comma-separated list of JSON reports.
func loadReports(list string) ([]*Report, error) {
	var out []*Report
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rep := new(Report)
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, fmt.Errorf("report %s: %w", path, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// medianReport folds several runs into one report holding, per bench, the
// median of each measurement.
func medianReport(reps []*Report) *Report {
	med := *reps[0]
	med.Results, med.Speedups = nil, nil
	results := map[string][]BenchResult{}
	for _, rep := range reps {
		for _, r := range rep.Results {
			if results[r.Name] == nil {
				med.Results = append(med.Results, BenchResult{Name: r.Name, Group: r.Group, Iters: r.Iters})
			}
			results[r.Name] = append(results[r.Name], r)
		}
	}
	for i := range med.Results {
		rs := results[med.Results[i].Name]
		of := func(f func(BenchResult) float64) float64 {
			xs := make([]float64, len(rs))
			for j, r := range rs {
				xs[j] = f(r)
			}
			return stats.Median(xs)
		}
		med.Results[i].NsPerOp = of(func(r BenchResult) float64 { return r.NsPerOp })
		med.Results[i].AllocsPerOp = of(func(r BenchResult) float64 { return r.AllocsPerOp })
		med.Results[i].BytesPerOp = of(func(r BenchResult) float64 { return r.BytesPerOp })
	}
	return &med
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
