// Command hpcreplay replays a decade-scale synthetic failure trace against
// a live hpcserve as accelerated, open-loop HTTP load, and reports
// coordinated-omission-corrected latency percentiles per route.
//
// Usage:
//
//	hpcreplay [-serve | -addr http://host:port] [-catalog quick|small|standard|decade|mega]
//	          [-seed 1] [-accel 5000] [-split 0.8] [-reads-per-write 10]
//	          [-batch 32] [-hazard 1] [-mix risktop=3,risknode=3,condprob=2,correlations=1,anomalies=1]
//	          [-inflight 512] [-timeout 10s] [-retries 0]
//	          [-out report.json] [-baseline REPLAY_baseline.json]
//	          [-tolerance 0.25] [-p99-slack 25ms] [-min-accel 0] [-quick]
//
// The trace is split at -split: failures before the split point become the
// server's boot dataset, failures after it are replayed as POST /v1/events
// batches interleaved with seeded reads across the five query routes. Send
// times are fixed by the trace and -accel before the run starts — the
// schedule never waits for a response — so a stalled server inflates the
// reported percentiles instead of silently pausing the load.
//
// With -serve the command boots an in-process hpcserve on a loopback port,
// replays against it, and shuts it down; -addr targets an external server
// instead (which must already hold the boot dataset for reads to be
// meaningful).
//
// The JSON report (schema hpcreplay/1) separates the deterministic
// workload description — byte-identical across runs with equal seed and
// config, schedule digest included — from the measured section. With
// -baseline the measured section is gated: any per-route p99 regression
// beyond -tolerance (and -p99-slack), any error-rate increase, or an
// achieved acceleration below -min-accel fails the run.
//
// -quick is the CI preset: the one-year two-system quick catalog with a
// 4x hazard multiplier and a denser read mix, sized to finish in seconds.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hpcfail/hpcfail/internal/cli"
	"github.com/hpcfail/hpcfail/internal/client"
	"github.com/hpcfail/hpcfail/internal/replay"
	"github.com/hpcfail/hpcfail/internal/server"
	"github.com/hpcfail/hpcfail/internal/trace"
)

func main() {
	cli.Main("hpcreplay", run)
}

func run(args []string) error {
	fs := flag.NewFlagSet("hpcreplay", flag.ContinueOnError)
	addr := fs.String("addr", "", "target server base URL, e.g. http://127.0.0.1:8080 (mutually exclusive with -serve)")
	serve := fs.Bool("serve", false, "boot an in-process hpcserve on a loopback port and replay against it")
	catalog := fs.String("catalog", replay.CatalogQuick, "replay catalog: quick, small, standard, decade or mega")
	seed := fs.Int64("seed", 1, "seed for catalog generation and the workload schedule")
	accel := fs.Float64("accel", 5000, "virtual-over-wall time acceleration factor")
	split := fs.Float64("split", 0.8, "fraction of the trace that becomes the boot dataset; the rest is replayed")
	readsPerWrite := fs.Float64("reads-per-write", 10, "read ops per replayed failure event")
	batch := fs.Int("batch", 32, "max events per POST /v1/events batch")
	hazard := fs.Float64("hazard", 1, "failure-hazard multiplier densifying the trace beyond paper-calibrated rates")
	mixSpec := fs.String("mix", "", "read mix weights, e.g. risktop=3,risknode=3,condprob=2,correlations=1,anomalies=1 (empty = default)")
	inflight := fs.Int("inflight", 512, "max in-flight requests; the dispatcher blocks (accruing send lag) at the cap")
	timeout := fs.Duration("timeout", 10*time.Second, "per-op timeout, retries included")
	retries := fs.Int("retries", 0, "client retries per op (0 = none: the trace, not the client, owns send times)")
	out := fs.String("out", "", "write the JSON report here (empty = stdout)")
	baseline := fs.String("baseline", "", "gate the measured section against this committed report")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional per-route p99 regression vs -baseline")
	p99Slack := fs.Duration("p99-slack", 25*time.Millisecond, "absolute p99 increase always tolerated, so near-instant routes don't flake CI")
	minAccel := fs.Float64("min-accel", 0, "fail unless the run sustained at least this achieved acceleration (0 = no floor)")
	quick := fs.Bool("quick", false, "CI preset: quick catalog, -hazard 4, -reads-per-write 20, -accel 1.5e6 (explicit flags still win)")
	dataset := fs.String("dataset", "", "replay against this named dataset on a multi-tenant server (empty = the default dataset; needs -addr)")
	datasetToken := fs.String("dataset-token", "", "auth token sent with -dataset requests")
	versionOf := cli.VersionFlag(fs, "hpcreplay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if versionOf() {
		return nil
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if *serve == (*addr != "") {
		return cli.Usagef("exactly one of -serve or -addr is required")
	}
	if *dataset != "" && *serve {
		return cli.Usagef("-dataset needs -addr (an external multi-tenant server holding that dataset)")
	}
	if !(*accel > 0) {
		return cli.Usagef("-accel must be positive, got %v", *accel)
	}
	if *quick {
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["catalog"] {
			*catalog = replay.CatalogQuick
		}
		if !set["hazard"] {
			*hazard = 4
		}
		if !set["reads-per-write"] {
			*readsPerWrite = 20
		}
		// The quick tail is ~73 virtual days; 1.5Mx compresses it to a few
		// wall seconds while still clearing any sane -min-accel floor.
		if !set["accel"] {
			*accel = 1_500_000
		}
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return cli.Usagef("-mix: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, "hpcreplay: "+format+"\n", a...) }
	logf("generating catalog %s (seed=%d hazard=%g)...", *catalog, *seed, *hazard)
	ds, err := replay.GenerateCatalog(*catalog, *seed, *hazard)
	if err != nil {
		return err
	}
	sched, err := replay.NewSchedule(ds, replay.ScheduleOptions{
		Seed:          *seed,
		Split:         *split,
		ReadsPerWrite: *readsPerWrite,
		BatchMax:      *batch,
		Mix:           mix,
	})
	if err != nil {
		return err
	}
	logf("catalog: %d systems, %d boot events, %d events to replay over %s virtual",
		len(ds.Systems), len(sched.BootDataset().Failures), sched.TailEvents(),
		sched.End().Sub(sched.SplitTime()).Round(time.Hour))

	baseURL := *addr
	var srvDone chan error
	var srvCancel context.CancelFunc
	if *serve {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		baseURL = "http://" + ln.Addr().String()
		sctx, cancel := context.WithCancel(context.Background())
		srvCancel = cancel
		srvDone = make(chan error, 1)
		scfg := server.Config{Dataset: sched.BootDataset(), Window: trace.Day, Logf: logf}
		go func() { srvDone <- server.ServeListener(sctx, ln, scfg) }()
		logf("in-process hpcserve on %s", baseURL)
	}
	if srvCancel != nil {
		defer func() {
			srvCancel()
			if err := <-srvDone; err != nil {
				logf("in-process server: %v", err)
			}
		}()
	}

	// Per-attempt deadline divides the op budget across attempts so a
	// retrying client still finishes within -timeout.
	perAttempt := *timeout / time.Duration(*retries+1)
	maxRetries := -1
	if *retries > 0 {
		maxRetries = *retries
	}
	cl, err := client.New(client.Config{
		BaseURL:        baseURL,
		MaxRetries:     maxRetries,
		RequestTimeout: perAttempt,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}
	if err := waitReady(ctx, baseURL); err != nil {
		return fmt.Errorf("server at %s not ready: %w", baseURL, err)
	}

	logf("replaying at %gx (inflight<=%d, timeout %v, retries %d)...", *accel, *inflight, *timeout, *retries)
	rep, err := replay.Run(ctx, replay.ClientTarget{C: cl, Dataset: *dataset, Token: *datasetToken}, sched, replay.Options{
		Config: replay.ReportConfig{
			Catalog:       *catalog,
			Seed:          *seed,
			Accel:         *accel,
			Split:         *split,
			ReadsPerWrite: int(*readsPerWrite),
			BatchMax:      *batch,
			HazardMult:    *hazard,
			Retries:       *retries,
			TimeoutMs:     timeout.Milliseconds(),
			Quick:         *quick,
		},
		Runner: replay.RunnerOptions{
			Accel:       *accel,
			MaxInflight: *inflight,
			Timeout:     *timeout,
		},
	})
	if err != nil {
		return err
	}
	enc, err := replay.EncodeReport(rep)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(enc)
	}
	printSummary(rep)

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		base, err := replay.DecodeReport(data)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", *baseline, err)
		}
		violations := replay.Gate(rep, base, replay.GateOptions{
			Tolerance: *tolerance,
			P99Slack:  *p99Slack,
			MinAccel:  *minAccel,
		})
		if len(violations) > 0 {
			return fmt.Errorf("hpcreplay: SLO violations vs %s:\n  %s", *baseline, strings.Join(violations, "\n  "))
		}
		logf("SLOs within %.0f%% of %s (achieved %.0fx)", *tolerance*100, *baseline, rep.Measured.AchievedAccel)
	} else if *minAccel > 0 && rep.Measured.AchievedAccel < *minAccel {
		return fmt.Errorf("hpcreplay: achieved acceleration %.0fx below required %.0fx",
			rep.Measured.AchievedAccel, *minAccel)
	}
	return nil
}

// waitReady polls /readyz (which also covers liveness) until the server
// answers 200 or the deadline passes.
func waitReady(ctx context.Context, baseURL string) error {
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	hc := &http.Client{Timeout: 2 * time.Second}
	var lastErr error = fmt.Errorf("no attempt made")
	for {
		req, err := http.NewRequestWithContext(wctx, http.MethodGet, baseURL+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("readyz returned %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		select {
		case <-wctx.Done():
			return fmt.Errorf("%w (last: %v)", wctx.Err(), lastErr)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// printSummary renders the human-facing digest of a report to stderr.
func printSummary(rep *Report) {
	m := rep.Measured
	fmt.Fprintf(os.Stderr, "hpcreplay: %d ops (%d writes / %d reads, %d events) in %.2fs wall — %.0fx achieved, %d late sends (max lag %.1fms)\n",
		rep.Workload.Ops, rep.Workload.Writes, rep.Workload.Reads, rep.Workload.ReplayEvents,
		m.WallSeconds, m.AchievedAccel, m.LateSends, m.MaxSendLagMs)
	routes := make([]string, 0, len(m.PerRoute))
	for r := range m.PerRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		st := m.PerRoute[r]
		fmt.Fprintf(os.Stderr, "  %-20s %7d ops  %6.1f rps  p50 %8s  p99 %8s  err %d  shed %d  partial %d\n",
			r, st.Ops, st.ThroughputRPS, usDur(st.P50Us), usDur(st.P99Us), st.Errors, st.Shed, st.Partial)
	}
}

// Report aliases the replay report for local helpers.
type Report = replay.Report

// usDur renders a microsecond quantile as a compact duration.
func usDur(us int64) string {
	return (time.Duration(us) * time.Microsecond).Round(10 * time.Microsecond).String()
}

// parseMix parses the -mix flag: comma-separated route=weight pairs over
// risktop, risknode, condprob, correlations, anomalies. Empty input means
// the default mix; omitted routes get weight 0.
func parseMix(s string) (replay.Mix, error) {
	var m replay.Mix
	if s == "" {
		return m, nil // zero value -> DefaultMix inside the schedule
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("entry %q is not route=weight", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w < 0 {
			return m, fmt.Errorf("weight %q must be a non-negative number", val)
		}
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "risktop":
			m.RiskTop = w
		case "risknode":
			m.RiskNode = w
		case "condprob":
			m.CondProb = w
		case "correlations":
			m.Correlations = w
		case "anomalies":
			m.Anomalies = w
		default:
			return m, fmt.Errorf("unknown route %q", name)
		}
	}
	if m.RiskTop+m.RiskNode+m.CondProb+m.Correlations+m.Anomalies <= 0 {
		return m, fmt.Errorf("at least one weight must be positive")
	}
	return m, nil
}
