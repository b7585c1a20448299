package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metrics is a tiny dependency-free Prometheus-text metrics registry: per
// route/status request counters, per-route latency sums, cache and
// singleflight counters, and engine gauges supplied at render time.
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

// admissionGauge is one route's live admission-control state.
type admissionGauge struct {
	inflight int64
	queued   int64
	peak     int64
	shed     uint64
}

// shardGauge is one shard's live supervision state.
type shardGauge struct {
	state      string
	healthy    bool
	version    uint64
	lag        uint64 // WAL records the standby trails the leader by
	failovers  uint64
	hasStandby bool
	diskFull   bool // shard is in read-only mode (WAL disk full)
}

// gauges carries point-in-time values the registry does not own.
type gauges struct {
	engineLag      time.Duration
	activeEvents   int
	observedEvents uint64
	cacheEntries   int
	breakerOpen    bool
	breakerTrips   uint64
	walRecords     uint64
	walSegments    int
	readOnly       bool   // any shard in read-only mode
	readOnlyEntry  uint64 // read-only-mode entries since start
	walAppendErrs  uint64 // WAL append/sync/snapshot failures since start
	datasetVersion uint64
	datasetEvents  int
	storeAppends   uint64
	storeRebuilds  uint64
	shards         []shardGauge
	admission      map[string]admissionGauge
}

// metricsRow is one dataset's slice of the exposition: its counters and
// point-in-time gauges, labeled with the dataset name. The default tenant
// renders with ds == "" — no dataset label, byte-identical to the
// single-tenant server's output — so existing dashboards keep working.
type metricsRow struct {
	ds string
	m  *metrics
	g  gauges
}

// dsLabel combines the optional dataset label with a row's other labels
// into a rendered label set ("" when there are none).
func dsLabel(ds, rest string) string {
	switch {
	case ds == "" && rest == "":
		return ""
	case ds == "":
		return "{" + rest + "}"
	case rest == "":
		return fmt.Sprintf("{dataset=%q}", ds)
	default:
		return fmt.Sprintf("{dataset=%q,%s}", ds, rest)
	}
}

// writeMetricsRows renders every dataset's metrics in Prometheus text
// exposition format with deterministic line order: each family's HELP/TYPE
// header once, then one line (or line group) per dataset row.
func writeMetricsRows(w io.Writer, rows []metricsRow) {
	family := func(name, help, typ string, emit func(r metricsRow)) {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		for _, r := range rows {
			emit(r)
		}
	}
	simple := func(name, help, typ string, val func(r metricsRow) string) {
		family(name, help, typ, func(r metricsRow) {
			fmt.Fprintf(w, "%s%s %s\n", name, dsLabel(r.ds, ""), val(r))
		})
	}
	u := func(v uint64) string { return fmt.Sprintf("%d", v) }
	d := func(v int) string { return fmt.Sprintf("%d", v) }
	f := func(v float64) string { return fmt.Sprintf("%g", v) }

	family("hpcserve_requests_total", "Completed HTTP requests by route and status code.", "counter", func(r metricsRow) {
		r.m.mu.Lock()
		reqKeys := make([]routeCode, 0, len(r.m.requests))
		for k := range r.m.requests {
			reqKeys = append(reqKeys, k)
		}
		sort.Slice(reqKeys, func(i, j int) bool {
			if reqKeys[i].route != reqKeys[j].route {
				return reqKeys[i].route < reqKeys[j].route
			}
			return reqKeys[i].code < reqKeys[j].code
		})
		for _, k := range reqKeys {
			fmt.Fprintf(w, "hpcserve_requests_total%s %d\n",
				dsLabel(r.ds, fmt.Sprintf("route=%q,code=\"%d\"", k.route, k.code)), r.m.requests[k])
		}
		r.m.mu.Unlock()
	})
	family("hpcserve_request_seconds", "Cumulative request latency by route.", "summary", func(r metricsRow) {
		r.m.mu.Lock()
		latKeys := make([]string, 0, len(r.m.latency))
		for k := range r.m.latency {
			latKeys = append(latKeys, k)
		}
		sort.Strings(latKeys)
		for _, k := range latKeys {
			agg := r.m.latency[k]
			lbl := dsLabel(r.ds, fmt.Sprintf("route=%q", k))
			fmt.Fprintf(w, "hpcserve_request_seconds_sum%s %g\n", lbl, agg.sum.Seconds())
			fmt.Fprintf(w, "hpcserve_request_seconds_count%s %d\n", lbl, agg.count)
		}
		r.m.mu.Unlock()
	})

	simple("hpcserve_condprob_cache_hits_total", "Conditional-probability cache hits.", "counter",
		func(r metricsRow) string { return u(r.m.cacheHits.Load()) })
	simple("hpcserve_condprob_cache_misses_total", "Conditional-probability cache misses.", "counter",
		func(r metricsRow) string { return u(r.m.cacheMisses.Load()) })
	simple("hpcserve_condprob_cache_hit_rate", "Cache hit fraction since start.", "gauge",
		func(r metricsRow) string { return f(r.m.hitRate()) })
	simple("hpcserve_condprob_cache_entries", "Cached conditional-probability results.", "gauge",
		func(r metricsRow) string { return d(r.g.cacheEntries) })
	simple("hpcserve_condprob_shared_total", "Requests served by another request's in-flight computation.", "counter",
		func(r metricsRow) string { return u(r.m.shared.Load()) })
	simple("hpcserve_events_accepted_total", "Events accepted by POST /v1/events.", "counter",
		func(r metricsRow) string { return u(r.m.eventsIn.Load()) })
	simple("hpcserve_events_rejected_total", "Events rejected by POST /v1/events.", "counter",
		func(r metricsRow) string { return u(r.m.eventsBad.Load()) })
	simple("hpcserve_engine_observed_events_total", "Events the risk engine has accepted since start.", "counter",
		func(r metricsRow) string { return u(r.g.observedEvents) })
	simple("hpcserve_engine_active_events", "Events currently inside the engine's sliding windows.", "gauge",
		func(r metricsRow) string { return d(r.g.activeEvents) })
	simple("hpcserve_engine_lag_seconds", "Time since the newest event the engine has seen.", "gauge",
		func(r metricsRow) string { return f(r.g.engineLag.Seconds()) })
	simple("hpcserve_shed_total", "Requests rejected by admission control.", "counter",
		func(r metricsRow) string { return u(r.m.shed.Load()) })
	simple("hpcserve_degraded_total", "Condprob requests answered degraded while the compute circuit was open.", "counter",
		func(r metricsRow) string { return u(r.m.degraded.Load()) })
	simple("hpcserve_idempotent_replays_total", "Event POSTs replayed from the idempotency cache.", "counter",
		func(r metricsRow) string { return u(r.m.idemReplays.Load()) })
	simple("hpcserve_breaker_open", "Whether any shard's analysis compute circuit is open.", "gauge",
		func(r metricsRow) string { return d(b2i(r.g.breakerOpen)) })
	simple("hpcserve_breaker_trips_total", "Closed-to-open transitions of the compute circuits, summed over shards.", "counter",
		func(r metricsRow) string { return u(r.g.breakerTrips) })
	simple("hpcserve_wal_records_total", "Records ever appended to the write-ahead log.", "counter",
		func(r metricsRow) string { return u(r.g.walRecords) })
	simple("hpcserve_wal_segments", "Live write-ahead-log segment files.", "gauge",
		func(r metricsRow) string { return d(r.g.walSegments) })
	simple("hpcserve_read_only", "Whether any shard is rejecting writes because its WAL disk is full.", "gauge",
		func(r metricsRow) string { return d(b2i(r.g.readOnly)) })
	simple("hpcserve_read_only_entries_total", "Times a shard entered read-only mode (WAL disk full).", "counter",
		func(r metricsRow) string { return u(r.g.readOnlyEntry) })
	simple("hpcserve_read_only_rejects_total", "Event POSTs rejected at the read-only gate.", "counter",
		func(r metricsRow) string { return u(r.m.readOnlyRejects.Load()) })
	simple("hpcserve_wal_append_errors_total", "WAL append, sync or snapshot failures.", "counter",
		func(r metricsRow) string { return u(r.g.walAppendErrs) })
	simple("hpcserve_dataset_version", "Current version of the dataset store.", "gauge",
		func(r metricsRow) string { return u(r.g.datasetVersion) })
	simple("hpcserve_dataset_events", "Failure events in the current dataset snapshot.", "gauge",
		func(r metricsRow) string { return d(r.g.datasetEvents) })
	simple("hpcserve_store_appends_total", "Batches applied to the dataset store since start.", "counter",
		func(r metricsRow) string { return u(r.g.storeAppends) })
	simple("hpcserve_store_rebuilds_total", "Store appends that fell back to a full index rebuild.", "counter",
		func(r metricsRow) string { return u(r.g.storeRebuilds) })
	simple("hpcserve_partial_responses_total", "Scatter-gather responses served with X-Partial: true (a shard was down or slow).", "counter",
		func(r metricsRow) string { return u(r.m.partial.Load()) })

	family("hpcserve_shard_healthy", "Whether the shard is Ready (1) or not (0).", "gauge", func(r metricsRow) {
		for i, sg := range r.g.shards {
			fmt.Fprintf(w, "hpcserve_shard_healthy%s %d\n",
				dsLabel(r.ds, fmt.Sprintf("shard=\"%d\",state=%q", i, sg.state)), b2i(sg.healthy))
		}
	})
	family("hpcserve_shard_dataset_version", "Current dataset-store version of the shard.", "gauge", func(r metricsRow) {
		for i, sg := range r.g.shards {
			fmt.Fprintf(w, "hpcserve_shard_dataset_version%s %d\n",
				dsLabel(r.ds, fmt.Sprintf("shard=\"%d\"", i)), sg.version)
		}
	})
	family("hpcserve_shard_failovers_total", "Standby promotions the shard has been through.", "counter", func(r metricsRow) {
		for i, sg := range r.g.shards {
			fmt.Fprintf(w, "hpcserve_shard_failovers_total%s %d\n",
				dsLabel(r.ds, fmt.Sprintf("shard=\"%d\"", i)), sg.failovers)
		}
	})
	family("hpcserve_wal_replication_lag_records", "WAL records the shard's standby trails its leader by (0 with no standby).", "gauge", func(r metricsRow) {
		for i, sg := range r.g.shards {
			fmt.Fprintf(w, "hpcserve_wal_replication_lag_records%s %d\n",
				dsLabel(r.ds, fmt.Sprintf("shard=\"%d\"", i)), sg.lag)
		}
	})
	family("hpcserve_shard_disk_full", "Whether the shard's WAL disk is full (shard is read-only).", "gauge", func(r metricsRow) {
		for i, sg := range r.g.shards {
			fmt.Fprintf(w, "hpcserve_shard_disk_full%s %d\n",
				dsLabel(r.ds, fmt.Sprintf("shard=\"%d\"", i)), b2i(sg.diskFull))
		}
	})

	admRoutesOf := func(r metricsRow) []string {
		routes := make([]string, 0, len(r.g.admission))
		for route := range r.g.admission {
			routes = append(routes, route)
		}
		sort.Strings(routes)
		return routes
	}
	family("hpcserve_admission_inflight", "Handlers currently running, by route.", "gauge", func(r metricsRow) {
		for _, route := range admRoutesOf(r) {
			fmt.Fprintf(w, "hpcserve_admission_inflight%s %d\n",
				dsLabel(r.ds, fmt.Sprintf("route=%q", route)), r.g.admission[route].inflight)
		}
	})
	family("hpcserve_admission_queued", "Requests waiting for a handler slot, by route.", "gauge", func(r metricsRow) {
		for _, route := range admRoutesOf(r) {
			fmt.Fprintf(w, "hpcserve_admission_queued%s %d\n",
				dsLabel(r.ds, fmt.Sprintf("route=%q", route)), r.g.admission[route].queued)
		}
	})
	family("hpcserve_admission_peak_inflight", "High-water mark of concurrent handlers, by route.", "gauge", func(r metricsRow) {
		for _, route := range admRoutesOf(r) {
			fmt.Fprintf(w, "hpcserve_admission_peak_inflight%s %d\n",
				dsLabel(r.ds, fmt.Sprintf("route=%q", route)), r.g.admission[route].peak)
		}
	})
	family("hpcserve_admission_shed_total", "Requests shed at admission, by route.", "counter", func(r metricsRow) {
		for _, route := range admRoutesOf(r) {
			fmt.Fprintf(w, "hpcserve_admission_shed_total%s %d\n",
				dsLabel(r.ds, fmt.Sprintf("route=%q", route)), r.g.admission[route].shed)
		}
	})
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
