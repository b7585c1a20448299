package server

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcfail/hpcfail/internal/store"
)

// metrics is a dataset's own counters: per route/status request counts,
// per-route latency sums, cache, singleflight and ingest counters. The
// /metrics table (families) renders them beside the dataset's status read.
type metrics struct {
	mu       sync.Mutex
	requests map[routeCode]uint64 // route+status -> count
	latency  map[string]*latencyAgg

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	shared      atomic.Uint64 // singleflight followers served by a leader's computation
	eventsIn    atomic.Uint64 // events accepted via /v1/events
	eventsBad   atomic.Uint64 // events rejected via /v1/events
	shed        atomic.Uint64 // requests rejected by admission control
	degraded    atomic.Uint64 // condprob requests served degraded (circuit open)
	idemReplays atomic.Uint64 // POST /v1/events replays served from the idempotency cache
	partial     atomic.Uint64 // scatter-gather responses answered with X-Partial: true
	// readOnlyRejects counts event POSTs shed at the read-only gate (the
	// in-batch ENOSPC fault itself is counted by the fabric's walAppendErrs).
	readOnlyRejects atomic.Uint64
}

type routeCode struct {
	route string
	code  int
}

type latencyAgg struct {
	count uint64
	sum   time.Duration
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[routeCode]uint64),
		latency:  make(map[string]*latencyAgg),
	}
}

// observe records one completed request.
func (m *metrics) observe(route string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[routeCode{route, code}]++
	agg := m.latency[route]
	if agg == nil {
		agg = &latencyAgg{}
		m.latency[route] = agg
	}
	agg.count++
	agg.sum += d
}

// hitRate returns the condprob cache hit fraction in [0,1] (0 before any
// lookup).
func (m *metrics) hitRate() float64 {
	h, miss := m.cacheHits.Load(), m.cacheMisses.Load()
	if h+miss == 0 {
		return 0
	}
	return float64(h) / float64(h+miss)
}

// metricsInput is one dataset's input to the /metrics table: its label
// ("" for the default tenant, which renders unlabeled — the exact
// single-tenant exposition, so dashboards and the replay SLO gate keep
// working), its status read and its server's counters.
type metricsInput struct {
	ds string
	st datasetStatus
	s  *Server
}

// sample is one exposition line of a family: a name suffix (a summary's
// _sum and _count), the labels that follow the dataset label, and a value
// printed with %v (%d for integers, %g for floats).
type sample struct {
	suffix, labels string
	value          any
}

// family is one metric family: declared once, rendered for every dataset.
type family struct {
	name, help, typ string
	samples         func(d *metricsInput) []sample
}

// families is the /metrics table, in exposition order.
var families = []family{
	{"hpcserve_requests_total", "Completed HTTP requests by route and status code.", "counter", func(d *metricsInput) []sample {
		m := d.s.metrics
		m.mu.Lock()
		defer m.mu.Unlock()
		var out []sample
		for k, n := range m.requests {
			out = append(out, sample{labels: fmt.Sprintf("route=%q,code=\"%d\"", k.route, k.code), value: n})
		}
		return byLabels(out)
	}},
	{"hpcserve_request_seconds", "Cumulative request latency by route.", "summary", func(d *metricsInput) []sample {
		m := d.s.metrics
		m.mu.Lock()
		defer m.mu.Unlock()
		var out []sample
		for route, agg := range m.latency {
			lbl := fmt.Sprintf("route=%q", route)
			out = append(out, sample{"_sum", lbl, agg.sum.Seconds()}, sample{"_count", lbl, agg.count})
		}
		return byLabels(out)
	}},
	{"hpcserve_condprob_cache_hits_total", "Conditional-probability cache hits.", "counter",
		scalar(func(d *metricsInput) any { return d.s.metrics.cacheHits.Load() })},
	{"hpcserve_condprob_cache_misses_total", "Conditional-probability cache misses.", "counter",
		scalar(func(d *metricsInput) any { return d.s.metrics.cacheMisses.Load() })},
	{"hpcserve_condprob_cache_hit_rate", "Cache hit fraction since start.", "gauge",
		scalar(func(d *metricsInput) any { return d.s.metrics.hitRate() })},
	{"hpcserve_condprob_cache_entries", "Cached conditional-probability results.", "gauge",
		scalar(func(d *metricsInput) any { return d.s.cache.Len() })},
	{"hpcserve_condprob_shared_total", "Requests served by another request's in-flight computation.", "counter",
		scalar(func(d *metricsInput) any { return d.s.metrics.shared.Load() })},
	{"hpcserve_events_accepted_total", "Events accepted by POST /v1/events.", "counter",
		scalar(func(d *metricsInput) any { return d.s.metrics.eventsIn.Load() })},
	{"hpcserve_events_rejected_total", "Events rejected by POST /v1/events.", "counter",
		scalar(func(d *metricsInput) any { return d.s.metrics.eventsBad.Load() })},
	{"hpcserve_engine_observed_events_total", "Events the risk engine has accepted since start.", "counter",
		scalar(func(d *metricsInput) any { return d.st.total.observed })},
	{"hpcserve_engine_active_events", "Events currently inside the engine's sliding windows.", "gauge",
		scalar(func(d *metricsInput) any { return d.st.total.active })},
	{"hpcserve_engine_lag_seconds", "Time since the newest event the engine has seen.", "gauge",
		scalar(func(d *metricsInput) any { return d.st.total.engineLag.Seconds() })},
	{"hpcserve_shed_total", "Requests rejected by admission control.", "counter",
		scalar(func(d *metricsInput) any { return d.s.metrics.shed.Load() })},
	{"hpcserve_degraded_total", "Condprob requests answered degraded while the compute circuit was open.", "counter",
		scalar(func(d *metricsInput) any { return d.s.metrics.degraded.Load() })},
	{"hpcserve_idempotent_replays_total", "Event POSTs replayed from the idempotency cache.", "counter",
		scalar(func(d *metricsInput) any { return d.s.metrics.idemReplays.Load() })},
	{"hpcserve_breaker_open", "Whether any shard's analysis compute circuit is open.", "gauge",
		scalar(func(d *metricsInput) any { return b2i(d.st.total.breakerOpen) })},
	{"hpcserve_breaker_trips_total", "Closed-to-open transitions of the compute circuits, summed over shards.", "counter",
		scalar(func(d *metricsInput) any { return d.st.total.breakerTrips })},
	{"hpcserve_wal_records_total", "Records ever appended to the write-ahead log.", "counter",
		scalar(func(d *metricsInput) any { return d.st.total.walRecords })},
	{"hpcserve_wal_segments", "Live write-ahead-log segment files.", "gauge",
		scalar(func(d *metricsInput) any { return d.st.total.walSegments })},
	{"hpcserve_read_only", "Whether any shard is rejecting writes because its WAL disk is full.", "gauge",
		scalar(func(d *metricsInput) any { return b2i(d.st.total.ReadOnly) })},
	{"hpcserve_read_only_entries_total", "Times a shard entered read-only mode (WAL disk full).", "counter",
		scalar(func(d *metricsInput) any { return d.s.fabric.roEntries.Load() })},
	{"hpcserve_read_only_rejects_total", "Event POSTs rejected at the read-only gate.", "counter",
		scalar(func(d *metricsInput) any { return d.s.metrics.readOnlyRejects.Load() })},
	{"hpcserve_wal_append_errors_total", "WAL append, sync or snapshot failures.", "counter",
		scalar(func(d *metricsInput) any { return d.s.fabric.walAppendErrs.Load() })},
	{"hpcserve_dataset_version", "Current version of the dataset store.", "gauge",
		scalar(func(d *metricsInput) any { return d.st.total.version })},
	{"hpcserve_dataset_events", "Failure events in the current dataset snapshot.", "gauge",
		scalar(func(d *metricsInput) any { return d.st.total.events })},
	{"hpcserve_store_appends_total", "Batches applied to the dataset store since start.", "counter",
		scalar(func(d *metricsInput) any { return d.st.total.appends })},
	{"hpcserve_store_rebuilds_total", "Store appends that fell back to a full index rebuild.", "counter",
		scalar(func(d *metricsInput) any { return d.st.total.rebuilds })},
	{"hpcserve_partial_responses_total", "Scatter-gather responses served with X-Partial: true (a shard was down or slow).", "counter",
		scalar(func(d *metricsInput) any { return d.s.metrics.partial.Load() })},
	{"hpcserve_shard_healthy", "Whether the shard is Ready (1) or not (0).", "gauge", func(d *metricsInput) []sample {
		out := make([]sample, len(d.st.shards))
		for i, r := range d.st.shards {
			out[i] = sample{labels: fmt.Sprintf("shard=\"%d\",state=%q", i, r.State), value: b2i(r.State == store.ShardReady.String())}
		}
		return out
	}},
	{"hpcserve_shard_dataset_version", "Current dataset-store version of the shard.", "gauge",
		perShard(func(r shardRow) any { return r.version })},
	{"hpcserve_shard_failovers_total", "Standby promotions the shard has been through.", "counter",
		perShard(func(r shardRow) any { return r.failovers })},
	{"hpcserve_wal_replication_lag_records", "WAL records the shard's standby trails its leader by (0 with no standby).", "gauge",
		perShard(func(r shardRow) any { return r.lag })},
	{"hpcserve_shard_disk_full", "Whether the shard's WAL disk is full (shard is read-only).", "gauge",
		perShard(func(r shardRow) any { return b2i(r.ReadOnly) })},
	{"hpcserve_admission_inflight", "Handlers currently running, by route.", "gauge",
		perRoute(func(l *limiter) any { return l.inflight.Load() })},
	{"hpcserve_admission_queued", "Requests waiting for a handler slot, by route.", "gauge",
		perRoute(func(l *limiter) any { return l.queued.Load() })},
	{"hpcserve_admission_peak_inflight", "High-water mark of concurrent handlers, by route.", "gauge",
		perRoute(func(l *limiter) any { return l.peak.Load() })},
	{"hpcserve_admission_shed_total", "Requests shed at admission, by route.", "counter",
		perRoute(func(l *limiter) any { return l.shed.Load() })},
}

// scalar is a family with one unlabeled sample per dataset.
func scalar(val func(d *metricsInput) any) func(d *metricsInput) []sample {
	return func(d *metricsInput) []sample { return []sample{{value: val(d)}} }
}

// perShard is a family with one sample per shard, labeled by shard.
func perShard(val func(r shardRow) any) func(d *metricsInput) []sample {
	return func(d *metricsInput) []sample {
		out := make([]sample, len(d.st.shards))
		for i, r := range d.st.shards {
			out[i] = sample{labels: fmt.Sprintf("shard=\"%d\"", i), value: val(r)}
		}
		return out
	}
}

// perRoute is a family with one sample per admission-limited route,
// labeled by route.
func perRoute(val func(l *limiter) any) func(d *metricsInput) []sample {
	return func(d *metricsInput) []sample {
		var out []sample
		for route, l := range d.s.limits {
			if l != nil {
				out = append(out, sample{labels: fmt.Sprintf("route=%q", route), value: val(l)})
			}
		}
		return byLabels(out)
	}
}

// dsLabel joins the optional dataset label and a sample's other labels
// into a rendered label set ("" when there are none).
func dsLabel(ds, rest string) string {
	if ds != "" {
		rest = strings.TrimSuffix(fmt.Sprintf("dataset=%q,%s", ds, rest), ",")
	}
	if rest == "" {
		return ""
	}
	return "{" + rest + "}"
}

// handleMetrics renders the family table in Prometheus text exposition
// format: each family's HELP/TYPE header once, then its samples for the
// default tenant and every named tenant, in that order.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	in := []metricsInput{{ds: "", st: s.fabric.status(), s: s}}
	s.eachTenant(func(name string, ts *Server) {
		in = append(in, metricsInput{ds: name, st: ts.fabric.status(), s: ts})
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, fam := range families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.typ)
		for i := range in {
			for _, smp := range fam.samples(&in[i]) {
				fmt.Fprintf(w, "%s%s%s %v\n", fam.name, smp.suffix, dsLabel(in[i].ds, smp.labels), smp.value)
			}
		}
	}
}

// byLabels sorts a family's samples by their rendered labels, keeping the
// order of samples that share them (a summary's _sum before its _count).
// That is route order, then code order: routes hold no byte below '"' and
// status codes have three digits.
func byLabels(out []sample) []sample {
	slices.SortStableFunc(out, func(a, b sample) int { return strings.Compare(a.labels, b.labels) })
	return out
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
