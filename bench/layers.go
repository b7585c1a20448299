package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/correlate"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/server"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// The durability settings hpcserve runs with in the benchmark: interval
// fsync at its default 100ms spacing and a snapshot every 30s.
var (
	walPolicy  = wal.Options{Policy: wal.SyncInterval, Interval: 100 * time.Millisecond}
	snapPolicy = checkpoint.Fixed{Every: 30 * time.Second}
)

// span is one recorded interval. Spans of one op share Trace; Parent is the
// enclosing span's ID, 0 for a root.
type span struct {
	Trace  string            `json:"trace"`
	ID     int               `json:"id"`
	Parent int               `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Allocs uint64            `json:"allocs,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) add(trace string, parent int, name string, start, end time.Time, allocs uint64, attrs map[string]string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
		Allocs: allocs, Attrs: attrs,
	})
	return id
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordClient records the traced steady phase's client spans: op, with
// children queue (due until a lane took it) and http (sent until read).
// The gap between them is the generator's send lag, so queue plus http is
// the op's latency.
func (r *recorder) recordClient(ops []op, res []result) {
	for i, o := range ops {
		x := &res[i]
		if x.done.IsZero() {
			continue
		}
		tr := fmt.Sprintf("steady/%d", o.seq)
		root := r.add(tr, 0, "op", x.intended, x.done, 0, map[string]string{
			"route": routeName[o.kind], "status": fmt.Sprint(x.status), "cache": x.cache, "lane": fmt.Sprint(x.lane),
		})
		r.add(tr, root, "queue", x.intended, x.intended.Add(x.queueWait()), 0, nil)
		r.add(tr, root, "http", x.sent, x.done, 0, nil)
	}
}

// selfTime is a server span's duration minus the layer spans replayed for
// the same op — the time the server spent outside the replayed layers.
func selfTime(server span, layers []span) time.Duration {
	d := server.dur()
	for _, l := range layers {
		d -= l.dur()
	}
	return d
}

// layerStack is the harness's own copy of the layers hpcserve is built
// from, one set per shard, fed the same writes as the server under test so
// its state tracks the server's.
type layerStack struct {
	shards []*layerShard
	owner  map[int]int
}

type layerShard struct {
	st    *store.Store
	eng   *risk.Engine
	j     *risk.Journal
	miner *correlate.Miner
}

// setupTimes is the layer stack's build time by step.
type setupTimes struct {
	load, index, lift, miner, wal time.Duration
}

// shardCount is the shard count hpcserve ends up with: -shards clamped to
// one per system, 1 without sharding.
func shardCount(w *workload, systems int) int {
	if w.shards == 0 {
		return 1
	}
	return min(w.shards, systems)
}

// buildLayers builds the layer stack over the boot dataset, timing each
// step: load, index (partition and store), lift (risk engine), miner and
// WAL (journal open).
func buildLayers(bootDir string, w *workload, walDir string) (*layerStack, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	ds, err := loadBoot(bootDir)
	if err != nil {
		return nil, t, err
	}
	t.load = time.Since(t0)

	t0 = time.Now()
	n := shardCount(w, len(ds.Systems))
	parts := []*trace.Dataset{ds}
	ids := [][]int{ds.SystemIDs()}
	if w.shards > 0 {
		ring, err := store.NewRing(n, 0)
		if err != nil {
			return nil, t, err
		}
		parts, ids = store.PartitionDataset(ds, ring)
	}
	t.index = time.Since(t0)

	L := &layerStack{owner: make(map[int]int)}
	for i, part := range parts {
		for _, id := range ids[i] {
			L.owner[id] = i
		}
		sh := &layerShard{}
		t0 = time.Now()
		if sh.st, err = store.New(part); err != nil {
			return nil, t, err
		}
		t.index += time.Since(t0)

		t0 = time.Now()
		if sh.eng, err = risk.FromAnalyzer(sh.st.Snapshot().Analyzer(), trace.Day); err != nil {
			return nil, t, err
		}
		t.lift += time.Since(t0)

		t0 = time.Now()
		sh.miner = correlate.NewMiner(sh.st)
		t.miner += time.Since(t0)

		t0 = time.Now()
		// The stack's log never fsyncs: its interval fsyncs would land on
		// other events than the server's, so an observe span could cost more
		// than the whole request it is subtracted from. The fsync the server
		// pays stays in its self time.
		jc := risk.JournalConfig{Engine: sh.eng, WAL: walPolicy, SnapshotPolicy: snapPolicy}
		jc.WAL.Policy = wal.SyncNever
		jc.WAL.Dir = filepath.Join(walDir, fmt.Sprintf("shard-%03d", i))
		if !w.frozen {
			jc.Store = sh.st
		}
		if sh.j, _, err = risk.OpenJournal(jc); err != nil {
			return nil, t, err
		}
		t.wal += time.Since(t0)
		L.shards = append(L.shards, sh)
	}
	return L, t, nil
}

func (L *layerStack) close() {
	for _, sh := range L.shards {
		_ = sh.j.Close() // the WAL lives in the run's work directory
	}
}

// buildServer builds the server under test in process, configured as
// hpcserve configures itself for the workload's flags.
func buildServer(bootDir string, w *workload, walDir string) (*server.Server, error) {
	ds, err := loadBoot(bootDir)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{FrozenDataset: w.frozen, Window: trace.Day, TenantRoot: walDir, TenantWAL: walPolicy}
	if w.shards > 0 {
		cfg.Dataset = ds
		cfg.Shards = w.shards
		cfg.ShardWAL = walPolicy
		cfg.ShardWAL.Dir = walDir
		cfg.SnapshotPolicy = snapPolicy
		return server.New(cfg)
	}
	st, err := store.New(ds)
	if err != nil {
		return nil, err
	}
	engine, err := risk.FromAnalyzer(st.Snapshot().Analyzer(), trace.Day)
	if err != nil {
		return nil, err
	}
	jc := risk.JournalConfig{Engine: engine, WAL: walPolicy, SnapshotPolicy: snapPolicy}
	jc.WAL.Dir = walDir
	if !w.frozen {
		jc.Store = st
	}
	journal, _, err := risk.OpenJournal(jc)
	if err != nil {
		return nil, err
	}
	cfg.Store, cfg.Engine, cfg.Journal = st, engine, journal
	return server.New(cfg)
}

// shardsFor lists the shards a read touches: the owner of its system, or
// every shard.
func (L *layerStack) shardsFor(system int) []*layerShard {
	if system != 0 {
		return []*layerShard{L.shards[L.owner[system]]}
	}
	return L.shards
}

// scatter runs fn on every shard at once and waits, as the server's
// scatter-gather does, so a replayed read's wall time compares with the
// server's.
func scatter[T any](shards []*layerShard, fn func(*layerShard) T) []T {
	out := make([]T, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *layerShard) {
			defer wg.Done()
			out[i] = fn(sh)
		}(i, sh)
	}
	wg.Wait()
	return out
}

func (L *layerStack) condProb(q query) (analysis.CondResult, error) {
	anchor, err := parsePred(q.anchor)
	if err != nil {
		return analysis.CondResult{}, err
	}
	target, err := parsePred(q.target)
	if err != nil {
		return analysis.CondResult{}, err
	}
	// Like the server, skip shards holding none of the query's systems.
	var involved []*layerShard
	for _, sh := range L.shards {
		if len(L.shards) == 1 || len(groupSystems(sh.st.Snapshot().Dataset(), q.group)) > 0 {
			involved = append(involved, sh)
		}
	}
	type part struct {
		r   analysis.CondResult
		err error
	}
	parts := scatter(involved, func(sh *layerShard) part {
		snap := sh.st.Snapshot()
		r, err := snap.Analyzer().CondProbCtx(context.Background(), groupSystems(snap.Dataset(), q.group), anchor, target, q.window, q.scope)
		return part{r, err}
	})
	var rs []analysis.CondResult
	for _, p := range parts {
		if p.err != nil {
			return analysis.CondResult{}, p.err
		}
		rs = append(rs, p.r)
	}
	if len(rs) == 1 {
		return rs[0], nil
	}
	return analysis.MergeCondResults(q.window, q.scope, rs), nil
}

func (L *layerStack) mine(q query) {
	parts := scatter(L.shardsFor(q.system), func(sh *layerShard) correlate.RuleCounts {
		var rc correlate.RuleCounts
		if q.system != 0 {
			rc, _, _ = sh.miner.Mine(q.window, q.system)
		} else {
			rc, _, _ = sh.miner.Mine(q.window)
		}
		return rc
	})
	if len(parts) > 1 {
		correlate.MergeRuleCounts(q.window, parts)
	}
}

func (L *layerStack) anomalies(q query) {
	var systems []int
	if q.system != 0 {
		systems = []int{q.system}
	}
	scatter(L.shardsFor(q.system), func(sh *layerShard) []correlate.Anomaly {
		return correlate.DetectAnomalies(sh.st.Snapshot().Analyzer(), systems, q.k)
	})
}

func (L *layerStack) topK(q query) {
	scatter(L.shardsFor(q.system), func(sh *layerShard) []risk.Score {
		return sh.eng.TopK(0, q.at)
	})
}

// readReps is how many times the traced pass times each read replay.
const readReps = 3

// gcGarbage is how much garbage the traced pass lets pile up before it
// collects between two ops.
const gcGarbage = 128 << 20

// countAllocs returns the heap allocations one run of fn makes.
func countAllocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// layerCall is one replayed layer call.
type layerCall struct {
	name       string
	scope      string // condprob only
	start, end time.Time
	allocs     float64
}

// passStats is what the traced pass measured.
type passStats struct {
	setup    setupTimes
	calls    map[string][]layerCall // by span name; condprob also by name.scope
	self     [nKinds][]float64      // server self time by route, µs
	selfNeg  int                    // ops whose self time came out negative
	ops      int
	problems []string
}

// tracedPass replays ops one at a time through an in-process server built
// like hpcserve and through the harness's layer stack: every op runs on the
// server, every write is journaled on the stack, and every read the server
// computed (a cache miss, or an uncached risk read) is recomputed on the
// stack so each layer's cost is timed alone.
func tracedPass(bootDir string, w *workload, work string, ops []op, rec *recorder) (*passStats, error) {
	ps := &passStats{calls: make(map[string][]layerCall)}
	// Both stacks get WAL directories of their own, emptied first: opening
	// a journal replays whatever log it finds, and each stack must start
	// from the boot dataset alone, whatever ran earlier in this invocation.
	dir := filepath.Join(work, "pass-"+w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	L, setup, err := buildLayers(bootDir, w, filepath.Join(dir, "layers-wal"))
	if err != nil {
		return nil, fmt.Errorf("building layer stack: %w", err)
	}
	defer L.close()
	ps.setup = setup
	S, err := buildServer(bootDir, w, filepath.Join(dir, "server-wal"))
	if err != nil {
		return nil, fmt.Errorf("building server: %w", err)
	}
	defer S.Close()
	h := S.Handler()

	// The collector runs only between ops, so its assists never land in one
	// stack's timing and not the other's; the allocation counts carry each
	// layer's share of collection cost.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var live uint64
	for i := range ops {
		if metrics.Read(heap); i == 0 || heap[0].Value.Uint64() > live+gcGarbage {
			runtime.GC()
			metrics.Read(heap)
			live = heap[0].Value.Uint64()
		}
		o := &ops[i]
		req := httptest.NewRequest(http.MethodGet, o.path, nil)
		if o.kind == kWrite {
			req = httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
			req.Header.Set("Content-Type", "application/json")
		}
		rw := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rw, req)
		srvEnd := time.Now()
		if rw.Code/100 != 2 {
			ps.problems = append(ps.problems, fmt.Sprintf("traced pass %s: status %d", o.path, rw.Code))
		}
		cache := rw.Header().Get("X-Cache")
		calls, problem := L.replay(o, cache == "MISS", rw.Body.Bytes())
		if problem != "" {
			ps.problems = append(ps.problems, fmt.Sprintf("traced pass %s: %s", o.path, problem))
		}
		end := time.Now()

		tr := fmt.Sprintf("pass/%d", o.seq)
		root := rec.add(tr, 0, "op", start, end, 0, map[string]string{"route": routeName[o.kind], "status": fmt.Sprint(rw.Code), "cache": cache})
		srv := rec.spans[rec.add(tr, root, "server", start, srvEnd, 0, nil)-1]
		var layers []span
		for _, c := range calls {
			var attrs map[string]string
			if c.scope != "" {
				attrs = map[string]string{"scope": c.scope}
				ps.calls[c.name+"."+c.scope] = append(ps.calls[c.name+"."+c.scope], c)
			}
			ps.calls[c.name] = append(ps.calls[c.name], c)
			layers = append(layers, rec.spans[rec.add(tr, root, c.name, c.start, c.end, uint64(c.allocs), attrs)-1])
		}
		self := selfTime(srv, layers)
		if self < 0 {
			ps.selfNeg++
		}
		ps.self[o.kind] = append(ps.self[o.kind], us(self))
		ps.ops++
	}
	return ps, nil
}

// replay runs op o's layer work on the stack: every event of a write is
// journaled, and a read the server computed is recomputed. For condprob and
// risk/{node} it checks the stack's answer against the server's body, and
// returns a description of any difference.
func (L *layerStack) replay(o *op, computed bool, body []byte) ([]layerCall, string) {
	var calls []layerCall
	// read replays an idempotent read readReps times and keeps the fastest
	// run: one run is as noisy as the server's own execution it is
	// subtracted from. Allocations are counted on one more, untimed run,
	// because reading them flushes the allocator's caches.
	read := func(name, scope string, fn func()) {
		c := layerCall{name: name, scope: scope}
		for r := 0; r < readReps; r++ {
			s := time.Now()
			fn()
			e := time.Now()
			if r == 0 || e.Sub(s) < c.end.Sub(c.start) {
				c.start, c.end = s, e
			}
		}
		c.allocs = float64(countAllocs(fn))
		calls = append(calls, c)
	}
	switch o.kind {
	case kWrite:
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for _, f := range o.events {
			c := layerCall{name: "journal.observe", start: time.Now()}
			err := L.shards[L.owner[f.System]].j.Observe(f)
			c.end = time.Now()
			if err != nil {
				return calls, fmt.Sprintf("layer journal observe: %v", err)
			}
			calls = append(calls, c)
		}
		runtime.ReadMemStats(&b)
		for i := range calls {
			calls[i].allocs = float64(b.Mallocs-a.Mallocs) / float64(len(calls))
		}
	case kRiskNode:
		sh := L.shards[L.owner[o.q.system]]
		var sc risk.Score
		var err error
		read("risk.score", "", func() { sc, err = sh.eng.Score(o.q.system, o.q.node, o.q.at) })
		var got struct {
			Risk float64 `json:"risk"`
		}
		if jerr := json.Unmarshal(body, &got); err != nil || jerr != nil || got.Risk != sc.Risk {
			return calls, fmt.Sprintf("server risk %v, layer risk %v (%v, %v)", got.Risk, sc.Risk, err, jerr)
		}
	case kRiskTop:
		read("risk.topk", "", func() { L.topK(o.q) })
	case kCondProb:
		if !computed {
			break
		}
		var res analysis.CondResult
		var err error
		read("analysis.condprob", o.q.scope.String(), func() { res, err = L.condProb(o.q) })
		got, jerr := decodeCondCounts(body)
		if err != nil || jerr != nil || got != countsOf(res) {
			return calls, fmt.Sprintf("server %+v, layers %+v (%v, %v)", got, countsOf(res), err, jerr)
		}
	case kCorrelations:
		if computed {
			// Mining catches the counts up on new events, so only the first
			// run does the server's work: time that one alone.
			c := layerCall{name: "correlate.mine", start: time.Now()}
			L.mine(o.q)
			c.end = time.Now()
			calls = append(calls, c)
		}
	case kAnomalies:
		if computed {
			read("correlate.anomalies", "", func() { L.anomalies(o.q) })
		}
	}
	return calls, ""
}
