// Correlation-rule and vicinity-anomaly serving: GET /v1/correlations and
// GET /v1/anomalies over internal/correlate, two more routes of the query
// executor (exec.go) beside /v1/condprob — each is a key, a per-shard part
// and a render.
package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/correlate"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// correlationsQuery is the parsed, canonicalized form of a /v1/correlations
// query.
type correlationsQuery struct {
	window        time.Duration
	scope         analysis.Scope
	system        int // 0 = all systems
	minSupport    int64
	minConfidence float64
}

// Key returns the canonical cache key: two requests that mean the same
// query map to the same key regardless of parameter order, and re-parsing a
// key yields the same key (the fuzz target pins the fixed point).
func (q correlationsQuery) Key() string {
	return fmt.Sprintf("window=%s&scope=%s&system=%d&min_support=%d&min_confidence=%s",
		q.window, q.scope, q.system, q.minSupport,
		strconv.FormatFloat(q.minConfidence, 'g', -1, 64))
}

// parseCorrelationsQuery parses a raw /v1/correlations query string.
// Defaults are the week window at node scope with the correlate package's
// rule thresholds; unknown and repeated parameters are rejected.
func parseCorrelationsQuery(raw string) (correlationsQuery, error) {
	vals, err := url.ParseQuery(raw)
	if err != nil {
		return correlationsQuery{}, fmt.Errorf("bad query string: %w", err)
	}
	q := correlationsQuery{
		window:        trace.Week,
		scope:         analysis.ScopeNode,
		minSupport:    correlate.DefaultMinSupport,
		minConfidence: correlate.DefaultMinConfidence,
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		vs := vals[key]
		if len(vs) != 1 {
			return correlationsQuery{}, fmt.Errorf("parameter %q repeated", key)
		}
		v := vs[0]
		switch key {
		case "window":
			if q.window, err = parseWindow(v); err != nil {
				return correlationsQuery{}, err
			}
		case "scope":
			if q.scope, err = parseScope(v); err != nil {
				return correlationsQuery{}, err
			}
		case "system":
			q.system, err = strconv.Atoi(v)
			if err != nil || q.system < 0 {
				return correlationsQuery{}, fmt.Errorf("bad system %q", v)
			}
		case "min_support":
			q.minSupport, err = strconv.ParseInt(v, 10, 64)
			if err != nil || q.minSupport < 1 {
				return correlationsQuery{}, fmt.Errorf("min_support must be a positive integer, got %q", v)
			}
		case "min_confidence":
			q.minConfidence, err = strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(q.minConfidence) || q.minConfidence <= 0 || q.minConfidence > 1 {
				return correlationsQuery{}, fmt.Errorf("min_confidence must be in (0, 1], got %q", v)
			}
		default:
			return correlationsQuery{}, fmt.Errorf("unknown parameter %q", key)
		}
	}
	return q, nil
}

// anomaliesQuery is the parsed form of a /v1/anomalies query.
type anomaliesQuery struct {
	system int // 0 = all systems
	k      int
}

func (q anomaliesQuery) Key() string {
	return fmt.Sprintf("system=%d&k=%d", q.system, q.k)
}

// defaultAnomalyK bounds /v1/anomalies output when no k is given.
const defaultAnomalyK = 20

func parseAnomaliesQuery(raw string) (anomaliesQuery, error) {
	vals, err := url.ParseQuery(raw)
	if err != nil {
		return anomaliesQuery{}, fmt.Errorf("bad query string: %w", err)
	}
	q := anomaliesQuery{k: defaultAnomalyK}
	for key, vs := range vals {
		if len(vs) != 1 {
			return anomaliesQuery{}, fmt.Errorf("parameter %q repeated", key)
		}
		v := vs[0]
		switch key {
		case "system":
			q.system, err = strconv.Atoi(v)
			if err != nil || q.system < 0 {
				return anomaliesQuery{}, fmt.Errorf("bad system %q", v)
			}
		case "k":
			q.k, err = strconv.Atoi(v)
			if err != nil || q.k < 1 {
				return anomaliesQuery{}, fmt.Errorf("k must be a positive integer, got %q", v)
			}
			if q.k > maxTopK {
				q.k = maxTopK
			}
		default:
			return anomaliesQuery{}, fmt.Errorf("unknown parameter %q", key)
		}
	}
	return q, nil
}

// ruleJSON is one correlation rule on the wire.
type ruleJSON struct {
	Anchor     string  `json:"anchor"`
	Target     string  `json:"target"`
	Scope      string  `json:"scope"`
	Support    int64   `json:"support"`
	Anchors    int64   `json:"anchors"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
}

// correlationsJSON is the /v1/correlations response body.
type correlationsJSON struct {
	Window         string     `json:"window"`
	Scope          string     `json:"scope"`
	System         int        `json:"system"`
	MinSupport     int64      `json:"min_support"`
	MinConfidence  float64    `json:"min_confidence"`
	DatasetVersion uint64     `json:"dataset_version"`
	Events         int64      `json:"events"`
	Rules          []ruleJSON `json:"rules"`
}

// anomaliesJSON is the /v1/anomalies response body.
type anomaliesJSON struct {
	System         int                 `json:"system"`
	K              int                 `json:"k"`
	DatasetVersion uint64              `json:"dataset_version"`
	Anomalies      []correlate.Anomaly `json:"anomalies"`
}

// checkCorrelationWindow rejects windows no shard's miner maintains before
// any compute happens: the incremental counts exist only for the configured
// windows, and a typo'd window should fail loudly, not mine from scratch.
func (s *Server) checkCorrelationWindow(w time.Duration) error {
	ws := s.fabric.shards[0].getMiner().Windows()
	names := make([]string, 0, len(ws))
	for _, u := range ws {
		if u == w {
			return nil
		}
		names = append(names, trace.WindowName(u))
	}
	return fmt.Errorf("window %s is not maintained by the correlation miner (configured: %v)", trace.WindowName(w), names)
}

func (s *Server) handleCorrelations(w http.ResponseWriter, r *http.Request) {
	q, err := parseCorrelationsQuery(r.URL.RawQuery)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.checkCorrelationWindow(q.window); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, ok := s.fabric.fleetSystem(q.system); q.system != 0 && !ok {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("unknown system %d", q.system))
		return
	}
	serveQuery(s, w, r, &correlationsRoute, q, s.fabric.systemShards(q.system))
}

// correlationsRoute serves /v1/correlations. A shard's part is its miner's
// integer rule counts, which correlate.MergeRuleCounts combines into exactly
// the counts one miner over the union would produce. The miner catches up
// on events appended since its last query and pins its own snapshot, so a
// freshly POSTed event is reflected in this very answer, and the part
// answers for the miner's version — never older than the executor's pin.
var correlationsRoute = analysisRoute[correlationsQuery, correlate.RuleCounts, correlationsJSON]{
	name: "correlations",
	part: func(_ context.Context, sh *shard, _ *store.Snapshot, q correlationsQuery) (correlate.RuleCounts, uint64, error) {
		rc, snap, ok := sh.getMiner().Mine(q.window, scopeSystems(q.system)...)
		if !ok {
			return correlate.RuleCounts{}, 0, fmt.Errorf("window %s not maintained by the correlation miner", trace.WindowName(q.window))
		}
		return rc, snap.Version(), nil
	},
	render: correlationsResponse,
}

// scopeSystems turns an optional system parameter into a system filter
// (nil = all systems).
func scopeSystems(system int) []int {
	if system == 0 {
		return nil
	}
	return []int{system}
}

// correlationsResponse derives the thresholded rule graph from the merged
// integer counts and renders the wire body.
func correlationsResponse(q correlationsQuery, version uint64, parts []correlate.RuleCounts) correlationsJSON {
	agg := correlate.MergeRuleCounts(q.window, parts).Aggregate()
	body := correlationsJSON{
		Window:         trace.WindowName(q.window),
		Scope:          q.scope.String(),
		System:         q.system,
		MinSupport:     q.minSupport,
		MinConfidence:  q.minConfidence,
		DatasetVersion: version,
		Events:         agg.Total,
		Rules:          []ruleJSON{},
	}
	for _, rule := range agg.Rules(q.scope, q.minSupport, q.minConfidence) {
		body.Rules = append(body.Rules, ruleJSON{
			Anchor:     rule.Anchor.String(),
			Target:     rule.Target.String(),
			Scope:      rule.Scope.String(),
			Support:    rule.Support,
			Anchors:    rule.Anchors,
			Confidence: finite(rule.Confidence),
			Lift:       finite(rule.Lift),
		})
	}
	return body
}

func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	q, err := parseAnomaliesQuery(r.URL.RawQuery)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, ok := s.fabric.fleetSystem(q.system); q.system != 0 && !ok {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("unknown system %d", q.system))
		return
	}
	serveQuery(s, w, r, &anomaliesRoute, q, s.fabric.systemShards(q.system))
}

// anomaliesRoute serves /v1/anomalies: each shard scores its own nodes
// against their vicinities and returns its top k, and the union re-sorts
// under the detector's exact order — the global top k is always contained
// in the union of per-shard top k lists, so per-shard truncation loses
// nothing.
var anomaliesRoute = analysisRoute[anomaliesQuery, []correlate.Anomaly, anomaliesJSON]{
	name: "anomalies",
	part: func(_ context.Context, _ *shard, snap *store.Snapshot, q anomaliesQuery) ([]correlate.Anomaly, uint64, error) {
		return correlate.DetectAnomalies(snap.Analyzer(), scopeSystems(q.system), q.k), snap.Version(), nil
	},
	render: func(q anomaliesQuery, version uint64, parts [][]correlate.Anomaly) anomaliesJSON {
		// A fresh slice: cached parts are shared and must never be re-sorted.
		merged := []correlate.Anomaly{}
		for _, p := range parts {
			merged = append(merged, p...)
		}
		correlate.SortAnomalies(merged)
		if len(merged) > q.k {
			merged = merged[:q.k]
		}
		return anomaliesJSON{System: q.system, K: q.k, DatasetVersion: version, Anomalies: merged}
	},
}
