package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// config is one bench invocation's settings.
type config struct {
	boot     bootFunc
	work     string // work directory for this invocation
	catalog  string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	passOps  int // leading ops of the stream the traced pass replays
	pins     pins
}

// booted is a running server under test.
type booted struct {
	base string
	pid  int
	stop func() error
}

// bootFunc boots the server under test over in's boot dataset, configured
// for w; i numbers the boots of one run. It returns the time to readiness.
type bootFunc func(ctx context.Context, in *inputs, w *workload, i int) (*booted, time.Duration, error)

// processBoot boots hpcserve from bin as a separate process.
func processBoot(bin, work string) bootFunc {
	return func(ctx context.Context, in *inputs, w *workload, i int) (*booted, time.Duration, error) {
		p, d, err := startServer(ctx, bin, in.bootDir, filepath.Join(work, "wal"),
			filepath.Join(work, fmt.Sprintf("hpcserve-%d.log", i)), w.serverFlags())
		if err != nil {
			return nil, 0, err
		}
		return &booted{base: p.base, pid: p.pid(), stop: p.stop}, d, nil
	}
}

// Phase shares of the measured --seconds: the open-loop steady phase, then
// the closed-loop peak phase.
const (
	steadyShare = 1.0 / 3
	peakShare   = 2.0 / 3
)

// setupBoots is how many times the server boots; setup_s is their median.
const setupBoots = 3

// maxServe bounds how long the kept server may run before the measured
// phases end, with a margin before its first 30s maintenance tick.
const maxServe = 28 * time.Second

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing (0 for other metrics).
	N int `json:"n,omitempty"`
}

// report is one workload run's outcome.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   []metric          `json:"metrics"`
	Info      []metric          `json:"info,omitempty"`
	Digests   map[string]string `json:"digests"`
	Phases    map[string]int    `json:"phase_ops"`
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

// info records a number reported for context only: printed and written
// with -out, but not part of the result line.
func (r *report) info(name string, v float64, unit string, n int) {
	r.Info = append(r.Info, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// account counts a phase's ops as attempted and its non-2xx, transport and
// undecodable responses as failed.
func (r *report) account(phase string, res []result) {
	r.Phases[phase] = len(res)
	r.Attempted += len(res)
	var badJSON, partial int
	for i := range res {
		if !res[i].ok() {
			r.Failed++
		}
		if res[i].badJSON {
			badJSON++
		}
		if res[i].partial {
			partial++
		}
	}
	if badJSON > 0 {
		r.problem("%s: %d 2xx response bodies are not valid JSON", phase, badJSON)
	}
	if partial > 0 {
		r.problem("%s: %d responses were partial (X-Partial)", phase, partial)
	}
}

// runWorkload boots the server for w, drives its phases and checks the
// answers. Untraced runs report the end-to-end metrics; traced runs record
// spans and report the per-layer metrics.
func runWorkload(ctx context.Context, cfg *config, w *workload) (*report, error) {
	rep := &report{Workload: w.name, Seed: cfg.seed, Traced: cfg.trace, Digests: map[string]string{}, Phases: map[string]int{}}
	calib := calibrate()

	in, err := makeInputs(cfg.catalog, cfg.seed, filepath.Join(cfg.work, "boot"))
	if err != nil {
		return nil, err
	}
	prefix := prefixOps(in, w, cfg.seed, pinnedOps)
	rep.Digests["boot"] = in.bootDigest
	rep.Digests[w.name] = digestOps(prefix)
	for name, d := range rep.Digests {
		if err := cfg.pins.check(cfg.seed, name, d); err != nil {
			rep.problem("%v", err)
		}
	}

	boots := setupBoots
	if cfg.trace {
		boots = 1
	}
	var bootTimes []float64
	var p *booted
	for i := 0; i < boots; i++ {
		var d time.Duration
		p, d, err = cfg.boot(ctx, in, w, i)
		if err != nil {
			return nil, err
		}
		bootTimes = append(bootTimes, d.Seconds())
		if i < boots-1 {
			if err := p.stop(); err != nil {
				return nil, fmt.Errorf("stopping hpcserve after boot %d: %w", i+1, err)
			}
		}
	}
	readyAt := time.Now()
	stopped := false
	defer func() {
		if !stopped {
			_ = p.stop() // error path: the run already failed
		}
	}()

	tgt := newHTTPTarget(p.base)
	defer tgt.close()
	gen := newGenerator(tgt)
	s := newStream(in, w, cfg.seed)
	var acked []trace.Failure
	ack := func(ops []op, res []result) {
		for i := range ops {
			if ops[i].kind != kWrite || !res[i].ok() {
				continue
			}
			if res[i].accepted != len(ops[i].events) {
				rep.problem("write %d: server accepted %d of %d events", ops[i].seq, res[i].accepted, len(ops[i].events))
			}
			acked = append(acked, ops[i].events...)
		}
	}

	warm := s.warmup()
	wres := gen.run(ctx, warm, false)
	rep.account("warmup", wres)
	ack(warm, wres)

	m0, err := scrape(p.base)
	if err != nil {
		return nil, err
	}
	p0, err := readProc(p.pid)
	if err != nil {
		return nil, err
	}
	steady := s.until(time.Duration(cfg.seconds * steadyShare * float64(time.Second)))
	sres := gen.run(ctx, steady, true)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.account("steady", sres)
	ack(steady, sres)
	m1, err := scrape(p.base)
	if err != nil {
		return nil, err
	}
	p1, err := readProc(p.pid)
	if err != nil {
		return nil, err
	}

	var peak []op
	var pres []result
	if !cfg.trace {
		peak = s.take(int(w.peakRate * cfg.seconds * peakShare))
		pres = gen.run(ctx, peak, false)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep.account("peak", pres)
		ack(peak, pres)
	}

	// hpcserve's maintenance tick, 30s after it starts serving, decays the
	// risk engine by the wall clock and so drops every replayed event; no
	// measured phase may reach it.
	if d := time.Since(readyAt); d > maxServe {
		rep.problem("measured phases ended %v after the server came up, past its 30s maintenance tick; run with fewer --seconds", d.Round(time.Second))
	}

	// Correctness: counters, then the reference queries.
	mEnd, err := scrape(p.base)
	if err != nil {
		return nil, err
	}
	ackedForRef := acked
	if w.frozen {
		ackedForRef = nil
	}
	ref, err := referenceAnalyzer(in.bootDir, ackedForRef)
	if err != nil {
		return nil, err
	}
	rep.Problems = append(rep.Problems, checkCounters(mEnd, len(acked))...)
	rep.Problems = append(rep.Problems, checkCondProb(p.base, ref)...)
	rep.Attempted += len(refQueries)
	pEnd, err := readProc(p.pid)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := p.stop(); err != nil {
		rep.problem("hpcserve exit: %v", err)
	}

	if cfg.trace {
		if err := tracedMetrics(cfg, w, in, rep, steady, sres, m0, m1, p0, p1, prefix, calib); err != nil {
			return nil, err
		}
	} else {
		e2eMetrics(rep, steady, sres, peak, pres, bootTimes, pEnd, calib)
	}
	rep.Correct = len(rep.Problems) == 0
	return rep, nil
}

// e2eMetrics derives an untraced run's end-to-end metrics. The bounded set
// is what stays steady from run to run on a small shared host: set-up time,
// closed-loop throughput and peak resident memory. Latency percentiles,
// open-loop and closed-loop, are reported beside them as information.
func e2eMetrics(rep *report, steady []op, sres []result, peak []op, pres []result, bootTimes []float64, end procStat, calib time.Duration) {
	rep.add("setup_s", median(bootTimes), "s", len(bootTimes))

	first, last := pres[0].claimed, pres[0].done
	var byRoute [nKinds][]time.Duration
	for i := range pres {
		if pres[i].claimed.Before(first) {
			first = pres[i].claimed
		}
		if pres[i].done.After(last) {
			last = pres[i].done
		}
		if pres[i].ok() {
			byRoute[peak[i].kind] = append(byRoute[peak[i].kind], pres[i].latency())
		}
	}
	rep.add("peak_ops_s", float64(len(pres))/last.Sub(first).Seconds(), "1/s", len(pres))
	for k := kind(0); k < nKinds; k++ {
		sorted := sortedMs(byRoute[k])
		v, _ := quantile(sorted, 0.5)
		rep.info("peak."+routeName[k]+"_p50_ms", v, "ms", len(sorted))
	}

	var lat [nClasses][]time.Duration
	var lag []time.Duration
	for i := range sres {
		lag = append(lag, sres[i].sendLag())
		if sres[i].ok() {
			c := steady[i].kind.class()
			lat[c] = append(lat[c], sres[i].latency())
		}
	}
	rep.add("rss_mb", end.hwmKiB*1024/1e6, "MB", 0)
	for c := class(0); c < nClasses; c++ {
		sorted := sortedMs(lat[c])
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if v, enough := quantile(sorted, q); enough {
				rep.info(fmt.Sprintf("steady.%s_p%02.0f_ms", className[c], q*100), v, "ms", len(sorted))
			}
		}
	}
	v, _ := quantile(sortedMs(lag), 0.5)
	rep.info("steady.send_lag_p50_ms", v, "ms", len(lag))
	rep.info("host.calib_ms", ms(calib), "ms", 0)
}

// tracedMetrics derives the per-layer metrics: client spans and server
// counters from the traced steady phase, layer timings from the in-process
// pass over the stream's first ops.
func tracedMetrics(cfg *config, w *workload, in *inputs, rep *report, ops []op, res []result,
	m0, m1 map[string]float64, p0, p1 procStat, prefix []op, calib time.Duration) error {
	rec := &recorder{epoch: time.Now()}
	rec.recordClient(ops, res)

	var lag, wait []time.Duration
	var hits, reads [nKinds]int
	for i := range res {
		lag = append(lag, res[i].sendLag())
		wait = append(wait, res[i].queueWait())
		if k := ops[i].kind; res[i].ok() && k.class() == cAnalysis {
			reads[k]++
			if res[i].cache == "HIT" {
				hits[k]++
			}
		}
	}
	for _, k := range []kind{kCondProb, kCorrelations, kAnomalies} {
		ratio := 0.0
		if reads[k] > 0 {
			ratio = float64(hits[k]) / float64(reads[k])
		}
		rep.add("server.cache_hit_ratio."+routeName[k], ratio, "frac", reads[k])
	}
	delta := func(name string) float64 { return m1[name] - m0[name] }
	rep.add("wal.records", delta("hpcserve_wal_records_total"), "count", 0)
	rep.add("store.appends", delta("hpcserve_store_appends_total"), "count", 0)
	for k := kind(0); k < nKinds; k++ {
		lbl := fmt.Sprintf("{route=%q}", serverRoute[k])
		n := delta("hpcserve_request_seconds_count" + lbl)
		v := 0.0
		if n > 0 {
			v = delta("hpcserve_request_seconds_sum"+lbl) / n * 1000
		}
		rep.add("server.handler_ms."+routeName[k], v, "ms", int(n))
	}
	rep.add("server.cpu_ms_per_op", ms(p1.cpu-p0.cpu)/float64(len(res)), "ms", len(res))
	lagMs, waitMs := sortedMs(lag), sortedMs(wait)
	for _, q := range []float64{0.5, 0.99} {
		v, _ := quantile(lagMs, q)
		rep.add(fmt.Sprintf("client.send_lag_p%02.0f_ms", q*100), v, "ms", len(lagMs))
	}
	for _, q := range []float64{0.5, 0.99} {
		v, _ := quantile(waitMs, q)
		rep.add(fmt.Sprintf("client.queue_wait_p%02.0f_ms", q*100), v, "ms", len(waitMs))
	}
	rep.add("host.calib_ms", ms(calib), "ms", 0)

	ps, err := tracedPass(in.bootDir, w, cfg.work, prefix[:min(cfg.passOps, len(prefix))], rec)
	if err != nil {
		return err
	}
	rep.Problems = append(rep.Problems, ps.problems...)
	rep.Attempted += ps.ops
	rep.Phases["traced_pass"] = ps.ops

	layerMed := func(name string, f func(layerCall) float64) (float64, int) {
		var v []float64
		for _, c := range ps.calls[name] {
			v = append(v, f(c))
		}
		return median(v), len(v)
	}
	byUs := func(c layerCall) float64 { return us(c.end.Sub(c.start)) }
	byAllocs := func(c layerCall) float64 { return c.allocs }
	for _, scope := range []string{"node", "rack", "system"} {
		v, n := layerMed("analysis.condprob."+scope, byUs)
		rep.add("analysis.condprob_us."+scope, v, "us", n)
	}
	v, n := layerMed("analysis.condprob", byAllocs)
	rep.add("analysis.condprob_allocs", v, "count", n)
	rep.add("analysis.computes", float64(n), "count", 0)
	for _, l := range []struct{ metric, span string }{
		{"correlate.mine_us", "correlate.mine"},
		{"correlate.anomalies_us", "correlate.anomalies"},
		{"risk.score_us", "risk.score"},
		{"risk.topk_us", "risk.topk"},
	} {
		v, n := layerMed(l.span, byUs)
		rep.add(l.metric, v, "us", n)
	}
	v, n = layerMed("correlate.anomalies", byAllocs)
	rep.add("correlate.anomalies_allocs", v, "count", n)
	v, n = layerMed("risk.topk", byAllocs)
	rep.add("risk.topk_allocs", v, "count", n)
	var obs []float64
	for _, c := range ps.calls["journal.observe"] {
		obs = append(obs, byUs(c))
	}
	sort.Float64s(obs)
	for _, q := range []float64{0.5, 0.99} {
		v, _ := quantile(obs, q)
		rep.add(fmt.Sprintf("journal.observe_us.p%02.0f", q*100), v, "us", len(obs))
	}
	v, n = layerMed("journal.observe", byAllocs)
	rep.add("journal.observe_allocs", v, "count", n)
	for k := kind(0); k < nKinds; k++ {
		rep.add("server.self_us."+routeName[k], median(ps.self[k]), "us", len(ps.self[k]))
	}
	// A replayed layer can take longer than the whole server request it is
	// subtracted from; the share of ops where it did not says how far the
	// self times can be trusted.
	rep.info("server.self_nonneg_frac", 1-float64(ps.selfNeg)/float64(ps.ops), "frac", ps.ops)
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"load", ps.setup.load}, {"index", ps.setup.index}, {"lift", ps.setup.lift},
		{"miner", ps.setup.miner}, {"wal", ps.setup.wal},
	} {
		rep.add("setup."+st.name+"_ms", ms(st.d), "ms", 0)
	}
	return rec.write(filepath.Join(cfg.traceDir, w.name+".spans.jsonl"))
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink atomic.Uint64

// calibrate times a fixed CPU loop; a change in it between runs is host
// drift, not a change in the code under test.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink.Store(x)
	return time.Since(start)
}
