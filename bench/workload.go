package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/client"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// kind is one operation type of the generated traffic.
type kind int

const (
	kWrite kind = iota
	kRiskNode
	kRiskTop
	kCondProb
	kCorrelations
	kAnomalies
	nKinds
)

// routeName labels each kind in metric and span names.
var routeName = [nKinds]string{"events", "risk_node", "risk_top", "condprob", "correlations", "anomalies"}

// serverRoute is each kind's route pattern as hpcserve labels it in /metrics.
var serverRoute = [nKinds]string{"/v1/events", "/v1/risk/{node}", "/v1/risk/top", "/v1/condprob", "/v1/correlations", "/v1/anomalies"}

// class groups kinds by the latency percentiles they feed.
type class int

const (
	cWrite class = iota
	cRisk
	cAnalysis
	nClasses
)

var className = [nClasses]string{"write", "risk", "analysis"}

func (k kind) class() class {
	switch k {
	case kWrite:
		return cWrite
	case kRiskNode, kRiskTop:
		return cRisk
	default:
		return cAnalysis
	}
}

// workload is one traffic mix against one hpcserve configuration.
type workload struct {
	name string
	// frozen runs hpcserve with -live-ingest=false; shards with -shards N.
	frozen bool
	shards int
	// rate is the steady phase's open-loop arrival rate in ops/s.
	rate float64
	// peakRate is the closed-loop throughput the seed commit reached; it
	// sizes the peak phase's fixed op count so the phase lasts about its
	// share of the run there.
	peakRate float64
	// mix is how many ops of each kind every block of mixed ops holds. Each
	// block is the mix's kinds shuffled, so how many expensive ops a phase
	// holds varies from run to run by at most one block.
	mix [nKinds]int
	// hot draws analysis reads from a small fixed key set that fits the
	// server's result cache.
	hot bool
	// fleetWide sends risk/top, correlations and anomalies without system=,
	// so every shard answers.
	fleetWide bool
}

// batchEvents is how many events one POST /v1/events carries.
const batchEvents = 8

// Hot-set sizes: 42 keys in all, well inside the server's 256-entry cache.
const (
	hotCondProb     = 32
	hotCorrelations = 6
	hotAnomalies    = 4
)

// liveMix is shared by live and fleet so fleet stays the sharded twin of
// live.
var liveMix = [nKinds]int{kWrite: 8, kRiskNode: 29, kRiskTop: 28, kCondProb: 25, kCorrelations: 9, kAnomalies: 1}

// workloads are the benchmark's traffic mixes; BENCHMARK.json and README.md
// say why each was chosen.
var workloads = []*workload{
	{
		// Cache hits, encoding and the risk engine over a frozen dataset.
		name:     "dashboard",
		frozen:   true,
		rate:     500,
		peakRate: 1700,
		mix:      [nKinds]int{kWrite: 3, kRiskNode: 40, kRiskTop: 27, kCondProb: 20, kCorrelations: 5, kAnomalies: 5},
		hot:      true,
	},
	{
		// Every event is a new store version, so analysis reads recompute.
		name:     "live",
		rate:     300,
		peakRate: 850,
		mix:      liveMix,
	},
	{
		// The write path: WAL, risk engine and store append.
		name:     "ingest",
		rate:     300,
		peakRate: 850,
		mix:      [nKinds]int{kWrite: 25, kRiskNode: 45, kRiskTop: 20, kCondProb: 7, kCorrelations: 2, kAnomalies: 1},
	},
	{
		// The live mix on 4 shards: scatter-gather and merges.
		name:      "fleet",
		shards:    4,
		rate:      200,
		peakRate:  650,
		mix:       liveMix,
		fleetWide: true,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// serverFlags are the hpcserve flags this workload adds to the common ones.
func (w *workload) serverFlags() []string {
	var out []string
	if w.frozen {
		out = append(out, "-live-ingest=false")
	}
	if w.shards > 0 {
		out = append(out, "-shards", fmt.Sprint(w.shards))
	}
	return out
}

// query is the structured form of one read, kept beside its rendered path so
// the traced pass and the correctness checks can call the layers directly.
type query struct {
	anchor, target string // condprob event specs ("" = any failure)
	scope          analysis.Scope
	window         time.Duration
	group          int // condprob: 0 = all systems
	system         int // 0 = none given
	node           int
	k              int
	minSupport     int64 // correlations: 0 = server default
	at             time.Time
}

// op is one scheduled HTTP operation.
type op struct {
	seq  int
	kind kind
	// at is the intended send time as an offset from the phase start (open
	// loop only).
	at     time.Duration
	path   string
	body   []byte
	events []trace.Failure // writes: the events the body carries
	q      query
}

// Draw pools for reads; every label parses on the server.
var (
	condAnchors = []string{"", "HW", "SW", "ENV", "NET", "HW/Memory", "HW/CPU", "SW/OS", "ENV/PowerOutage"}
	condTargets = []string{"", "HW", "SW", "NET", "HW/Memory"}
	condWindows = []time.Duration{trace.Day, trace.Week, trace.Month}
	// Correlation windows stay inside the miner's default windows.
	corrWindows = []time.Duration{trace.Day, trace.Week}
	scopes      = []analysis.Scope{analysis.ScopeNode, analysis.ScopeRack, analysis.ScopeSystem}
)

// stream generates one workload's operations from a seed: a deterministic,
// unbounded sequence whose writes replay the catalog tail in trace order.
// When the tail is used up it replays again shifted forward by the span from
// the split point to the catalog end, so writes stay time-ordered and the
// sequence never runs out. Not safe for concurrent use.
type stream struct {
	w       *workload
	rng     *rand.Rand
	systems []trace.SystemInfo
	tail    []trace.Failure
	shift   time.Duration

	ti, cycle int
	vnow      time.Time // trace time of the newest emitted event
	seq       int
	at        time.Duration
	pending   *op         // the op until drew past its phase's end
	deck      []kind      // the rest of the current mix block
	drawn     [nKinds]int // queries drawn per kind, for the cycled choices

	hotCond, hotCorr, hotAnom []query
}

// newStream prepares w's stream over the split catalog. Each workload gets
// its own random sequence for a given seed.
func newStream(in *inputs, w *workload, seed int64) *stream {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	s := &stream{
		w:       w,
		rng:     rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
		systems: in.systems,
		tail:    in.tail,
		shift:   in.end.Sub(in.split),
		vnow:    in.split,
	}
	if w.hot {
		s.hotCond = s.distinct(hotCondProb, func(i int) query { return s.condQuery(scopes[i%len(scopes)]) }, kCondProb)
		s.hotCorr = s.distinct(hotCorrelations, func(int) query { return s.corrQuery() }, kCorrelations)
		s.hotAnom = s.distinct(hotAnomalies, func(int) query { return s.anomQuery() }, kAnomalies)
	}
	return s
}

// distinct draws n queries with distinct paths.
func (s *stream) distinct(n int, draw func(i int) query, k kind) []query {
	seen := make(map[string]bool, n)
	out := make([]query, 0, n)
	for len(out) < n {
		q := draw(len(out))
		if p := renderPath(k, q); !seen[p] {
			seen[p] = true
			out = append(out, q)
		}
	}
	return out
}

// warmupWrites, warmupMixed size the untimed warm-up.
const (
	warmupWrites = 16
	warmupMixed  = 200
)

// warmup returns the untimed warm-up: 16 write batches, every hot key once,
// then 200 mixed ops.
func (s *stream) warmup() []op {
	var out []op
	for i := 0; i < warmupWrites; i++ {
		out = append(out, s.emit(s.writeOp()))
	}
	for _, q := range s.hotCond {
		out = append(out, s.emit(s.readOp(kCondProb, q)))
	}
	for _, q := range s.hotCorr {
		out = append(out, s.emit(s.readOp(kCorrelations, q)))
	}
	for _, q := range s.hotAnom {
		out = append(out, s.emit(s.readOp(kAnomalies, q)))
	}
	for i := 0; i < warmupMixed; i++ {
		out = append(out, s.emit(s.mixedOp()))
	}
	return out
}

// next returns the next mixed op with its Poisson arrival offset.
func (s *stream) next() op {
	if o := s.pending; o != nil {
		s.pending = nil
		return *o
	}
	o := s.emit(s.mixedOp())
	s.at += time.Duration(s.rng.ExpFloat64() / s.w.rate * float64(time.Second))
	o.at = s.at
	return o
}

// until returns the ops arriving within d of the phase start.
func (s *stream) until(d time.Duration) []op {
	base := s.at
	var out []op
	for {
		o := s.next()
		if o.at-base >= d {
			s.pending = &o
			return out
		}
		o.at -= base
		out = append(out, o)
	}
}

// take returns the next n mixed ops (closed loop: arrival offsets unused).
func (s *stream) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func (s *stream) emit(o op) op {
	o.seq = s.seq
	s.seq++
	return o
}

// mixedOp deals the next op kind from the current mix block.
func (s *stream) mixedOp() op {
	if len(s.deck) == 0 {
		for k, n := range s.w.mix {
			for i := 0; i < n; i++ {
				s.deck = append(s.deck, kind(k))
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	k := s.deck[len(s.deck)-1]
	s.deck = s.deck[:len(s.deck)-1]
	switch k {
	case kWrite:
		return s.writeOp()
	case kRiskNode:
		return s.readOp(k, s.riskNodeQuery())
	case kRiskTop:
		return s.readOp(k, s.riskTopQuery())
	case kCondProb:
		if s.w.hot {
			return s.readOp(k, s.hotCond[s.rng.Intn(len(s.hotCond))])
		}
		return s.readOp(k, s.condQuery(scopes[s.rng.Intn(len(scopes))]))
	case kCorrelations:
		if s.w.hot {
			return s.readOp(k, s.hotCorr[s.rng.Intn(len(s.hotCorr))])
		}
		return s.readOp(k, s.corrQuery())
	default:
		if s.w.hot {
			return s.readOp(k, s.hotAnom[s.rng.Intn(len(s.hotAnom))])
		}
		return s.readOp(k, s.anomQuery())
	}
}

// nextEvent returns the next tail event, recycling the tail shifted forward
// once it is used up.
func (s *stream) nextEvent() trace.Failure {
	if s.ti == len(s.tail) {
		s.ti = 0
		s.cycle++
	}
	f := s.tail[s.ti]
	s.ti++
	f.Time = f.Time.Add(time.Duration(s.cycle) * s.shift)
	s.vnow = f.Time
	return f
}

func (s *stream) writeOp() op {
	evs := make([]trace.Failure, batchEvents)
	wire := make([]client.Event, batchEvents)
	for i := range evs {
		f := s.nextEvent()
		evs[i] = f
		t := f.Time
		wire[i] = client.Event{System: f.System, Node: f.Node, Time: &t, Category: f.Category.String()}
		if f.HW != trace.HWUnknown {
			wire[i].HW = f.HW.String()
		}
		if f.SW != trace.SWUnknown {
			wire[i].SW = f.SW.String()
		}
		if f.Env != trace.EnvUnknown {
			wire[i].Env = f.Env.String()
		}
	}
	body, err := json.Marshal(struct {
		Events []client.Event `json:"events"`
	}{wire})
	if err != nil {
		// client.Event marshals from plain fields; failure here is a bug.
		panic(fmt.Sprintf("marshaling event batch: %v", err))
	}
	return op{kind: kWrite, path: "/v1/events", body: body, events: evs}
}

func (s *stream) readOp(k kind, q query) op {
	if k == kRiskNode || k == kRiskTop {
		// The path carries whole seconds; keep the query equal to it.
		q.at = s.vnow.Truncate(time.Second)
	}
	return op{kind: k, path: renderPath(k, q), q: q}
}

// system returns the i-th system in catalog order, cycling.
func (s *stream) system(i int) trace.SystemInfo {
	return s.systems[i%len(s.systems)]
}

func (s *stream) riskNodeQuery() query {
	sys := s.system(s.draw(kRiskNode))
	return query{system: sys.ID, node: s.rng.Intn(sys.Nodes)}
}

// draw counts one query of kind k and returns how many came before it.
// Choices that set a read's cost — which system it asks about, whether it
// asks the whole fleet, a group filter — cycle on it rather than on the
// random source, so every run of a workload does the same work whatever
// its seed.
func (s *stream) draw(k kind) int {
	s.drawn[k]++
	return s.drawn[k] - 1
}

func (s *stream) riskTopQuery() query {
	c := s.draw(kRiskTop)
	q := query{k: 5 + s.rng.Intn(16)}
	if !s.w.fleetWide && c%3 == 0 {
		q.system = s.system(c / 3).ID
	}
	return q
}

func (s *stream) condQuery(scope analysis.Scope) query {
	c := s.draw(kCondProb)
	q := query{
		anchor: condAnchors[s.rng.Intn(len(condAnchors))],
		target: condTargets[s.rng.Intn(len(condTargets))],
		scope:  scope,
		window: condWindows[s.rng.Intn(len(condWindows))],
	}
	if c%4 == 0 {
		q.group = 1 + c/4%2
	}
	return q
}

func (s *stream) corrQuery() query {
	c := s.draw(kCorrelations)
	q := query{
		scope:  scopes[s.rng.Intn(len(scopes))],
		window: corrWindows[s.rng.Intn(len(corrWindows))],
	}
	if !s.w.fleetWide && c%3 == 0 {
		q.system = s.system(c / 3).ID
	}
	if c%4 == 1 {
		q.minSupport = 2
	}
	return q
}

func (s *stream) anomQuery() query {
	c := s.draw(kAnomalies)
	q := query{k: 5 + s.rng.Intn(21)}
	if !s.w.fleetWide && c%2 == 0 {
		q.system = s.system(c / 2).ID
	}
	return q
}

// renderPath renders a read as its URL path and query string.
func renderPath(k kind, q query) string {
	at := q.at.UTC().Format(time.RFC3339)
	switch k {
	case kRiskNode:
		return fmt.Sprintf("/v1/risk/%d?at=%s&system=%d", q.node, at, q.system)
	case kRiskTop:
		p := fmt.Sprintf("/v1/risk/top?at=%s&k=%d", at, q.k)
		if q.system != 0 {
			p += fmt.Sprintf("&system=%d", q.system)
		}
		return p
	case kCondProb:
		p := fmt.Sprintf("/v1/condprob?anchor=%s&scope=%s&target=%s&window=%s",
			q.anchor, q.scope, q.target, trace.WindowName(q.window))
		if q.group != 0 {
			p += fmt.Sprintf("&group=%d", q.group)
		}
		return p
	case kCorrelations:
		p := fmt.Sprintf("/v1/correlations?scope=%s&window=%s", q.scope, trace.WindowName(q.window))
		if q.system != 0 {
			p += fmt.Sprintf("&system=%d", q.system)
		}
		if q.minSupport != 0 {
			p += fmt.Sprintf("&min_support=%d", q.minSupport)
		}
		return p
	case kAnomalies:
		p := fmt.Sprintf("/v1/anomalies?k=%d", q.k)
		if q.system != 0 {
			p += fmt.Sprintf("&system=%d", q.system)
		}
		return p
	}
	panic(fmt.Sprintf("renderPath: kind %d is not a read", k))
}

// digestOps hashes ops in order — kind, arrival offset, path and body — so
// two streams with equal digests send identical traffic.
func digestOps(ops []op) string {
	h := sha256.New()
	var b [8]byte
	for _, o := range ops {
		binary.LittleEndian.PutUint64(b[:], uint64(o.kind))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(o.at))
		h.Write(b[:])
		h.Write([]byte(o.path))
		h.Write([]byte{0})
		h.Write(o.body)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// prefixOps is the first n ops of w's stream: the warm-up, then steady
// arrivals. It does not depend on the run length, so its digest pins the
// traffic and the traced pass replays exactly these ops.
func prefixOps(in *inputs, w *workload, seed int64, n int) []op {
	s := newStream(in, w, seed)
	ops := s.warmup()
	for len(ops) < n {
		ops = append(ops, s.next())
	}
	return ops[:n]
}
