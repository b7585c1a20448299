// Comparative analytics across named datasets: GET /v1/rates renders one
// dataset's failure-rate and lift tables, and GET /v1/compare/{condprob,
// rates} runs the same computation against several registered datasets,
// pinning one snapshot per dataset and diffing the results against the
// first-named baseline. Each per-dataset result runs through the same query
// executor as the plain endpoint (strict mode: a missing shard fails the
// call instead of degrading it), so a compare side is bit-identical to
// querying that dataset alone.
package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/registry"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// ratesQuery is the parsed form of a /v1/rates query: the window and scope
// feed the per-category lift cells (conditional-vs-baseline follow-up
// factors), mirroring /v1/condprob semantics.
type ratesQuery struct {
	window time.Duration
	scope  analysis.Scope
}

func parseRatesQuery(raw string) (ratesQuery, error) {
	q := ratesQuery{window: trace.Week, scope: analysis.ScopeNode}
	err := queryParams(raw, func(key, v string) (err error) {
		switch key {
		case "window":
			q.window, err = trace.ParseWindow(v)
		case "scope":
			q.scope, err = analysis.ParseScope(v)
		default:
			return unknownParam(key)
		}
		return err
	})
	return q, err
}

// rateJSON is an event count normalized per node-year.
type rateJSON struct {
	Count       int     `json:"count"`
	PerNodeYear float64 `json:"per_node_year"`
}

// categoryRateJSON is one root-cause category's share of the failure rate.
type categoryRateJSON struct {
	Category    string  `json:"category"`
	Count       int     `json:"count"`
	PerNodeYear float64 `json:"per_node_year"`
	Share       float64 `json:"share"`
}

// systemRateJSON is one system's failure rate.
type systemRateJSON struct {
	System      int     `json:"system"`
	Nodes       int     `json:"nodes"`
	NodeYears   float64 `json:"node_years"`
	Count       int     `json:"count"`
	PerNodeYear float64 `json:"per_node_year"`
}

// liftCellJSON is one category's follow-up lift: how much more likely any
// failure is within the window after seeing that category, versus baseline.
type liftCellJSON struct {
	Anchor      string  `json:"anchor"`
	Factor      float64 `json:"factor"`
	FactorLo    float64 `json:"factor_lo"`
	FactorHi    float64 `json:"factor_hi"`
	Significant bool    `json:"significant_5pct"`
}

// ratesJSON is the /v1/rates response body.
type ratesJSON struct {
	DatasetVersion uint64             `json:"dataset_version"`
	Window         string             `json:"window"`
	Scope          string             `json:"scope"`
	NodeYears      float64            `json:"node_years"`
	Events         int                `json:"events"`
	Overall        rateJSON           `json:"overall"`
	Categories     []categoryRateJSON `json:"categories"`
	PerSystem      []systemRateJSON   `json:"per_system"`
	Lift           []liftCellJSON     `json:"lift"`
}

func (s *Server) handleRates(w http.ResponseWriter, r *http.Request) {
	q, err := parseRatesQuery(r.URL.RawQuery)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	body, err := s.ratesBody(r.Context(), q)
	if err != nil {
		s.writeBodyError(w, err)
		return
	}
	w.Header().Set("X-Dataset-Version", strconv.FormatUint(body.DatasetVersion, 10))
	s.writeJSON(w, http.StatusOK, body)
}

// ratesPart is one shard's contribution to the rate tables.
type ratesPart struct {
	events int
	cats   map[trace.Category]int
	sys    map[int]int
}

// ratesBody computes the failure-rate and lift tables over one pinned
// snapshot per shard. Like every comparative body it is strict: any shard
// failing fails the whole call.
func (s *Server) ratesBody(ctx context.Context, q ratesQuery) (ratesJSON, error) {
	f := s.fabric
	parts, g := gather(ctx, f, f.allShards(), func(_, _ int, st *store.Store, _ *risk.Engine) (ratesPart, uint64, error) {
		snap := st.Snapshot()
		p := ratesPart{cats: make(map[trace.Category]int), sys: make(map[int]int)}
		ds := snap.Dataset()
		p.events = len(ds.Failures)
		for _, fe := range ds.Failures {
			p.cats[fe.Category]++
			p.sys[fe.System]++
		}
		return p, snap.Version(), nil
	})
	if err := g.failure(true); err != nil {
		return ratesJSON{}, fmt.Errorf("rates: %w", err)
	}
	merged := ratesPart{cats: make(map[trace.Category]int), sys: make(map[int]int)}
	for _, p := range parts {
		merged.events += p.events
		for c, n := range p.cats {
			merged.cats[c] += n
		}
		for id, n := range p.sys {
			merged.sys[id] += n
		}
	}

	const daysPerYear = 365.25
	nodeYears := 0.0
	for _, sys := range f.fleet {
		nodeYears += sys.NodeDays() / daysPerYear
	}
	perNY := func(count int) float64 {
		if nodeYears == 0 {
			return 0
		}
		return float64(count) / nodeYears
	}
	out := ratesJSON{
		DatasetVersion: g.version(),
		Window:         trace.WindowName(q.window),
		Scope:          q.scope.String(),
		NodeYears:      nodeYears,
		Events:         merged.events,
		Overall:        rateJSON{Count: merged.events, PerNodeYear: finite(perNY(merged.events))},
		Categories:     []categoryRateJSON{},
		PerSystem:      []systemRateJSON{},
		Lift:           []liftCellJSON{},
	}
	// Every category is emitted (zero counts included) in the catalog's
	// fixed order, so comparative diffs align category lists by index.
	for _, cat := range trace.Categories {
		n := merged.cats[cat]
		share := 0.0
		if merged.events > 0 {
			share = float64(n) / float64(merged.events)
		}
		out.Categories = append(out.Categories, categoryRateJSON{
			Category:    cat.String(),
			Count:       n,
			PerNodeYear: finite(perNY(n)),
			Share:       finite(share),
		})
	}
	for _, sys := range f.fleet {
		ny := sys.NodeDays() / daysPerYear
		n := merged.sys[sys.ID]
		rate := 0.0
		if ny > 0 {
			rate = float64(n) / ny
		}
		out.PerSystem = append(out.PerSystem, systemRateJSON{
			System:      sys.ID,
			Nodes:       sys.Nodes,
			NodeYears:   ny,
			Count:       n,
			PerNodeYear: finite(rate),
		})
	}
	// The lift table runs one condprob per category through the executor
	// path /v1/condprob uses, so its cells agree with the standalone
	// endpoint bit for bit.
	for _, cat := range trace.Categories {
		cq := condProbQuery{anchor: cat.String(), window: q.window, scope: q.scope}
		res, err := s.condProbValue(ctx, cq)
		if err != nil {
			return ratesJSON{}, fmt.Errorf("rates: lift %s: %w", cat, err)
		}
		out.Lift = append(out.Lift, liftCellJSON{
			Anchor:      cq.anchor,
			Factor:      res.Factor,
			FactorLo:    res.FactorLo,
			FactorHi:    res.FactorHi,
			Significant: res.Significant,
		})
	}
	return out, nil
}

// maxCompareDatasets bounds one comparative query's fan-out.
const maxCompareDatasets = 8

// parseCompareDatasets pulls the datasets= list (comma-separated canonical
// names, 2..8, no duplicates) out of a compare query.
func parseCompareDatasets(vals url.Values) ([]string, error) {
	vs := vals["datasets"]
	if len(vs) != 1 {
		return nil, fmt.Errorf("pass exactly one datasets= parameter (comma-separated names)")
	}
	raw := strings.Split(vs[0], ",")
	if len(raw) < 2 {
		return nil, fmt.Errorf("compare needs at least 2 datasets, got %d", len(raw))
	}
	if len(raw) > maxCompareDatasets {
		return nil, fmt.Errorf("compare accepts at most %d datasets, got %d", maxCompareDatasets, len(raw))
	}
	names := make([]string, 0, len(raw))
	seen := make(map[string]bool, len(raw))
	for _, v := range raw {
		canon, err := registry.Canonical(v)
		if err != nil {
			return nil, err
		}
		if seen[canon] {
			return nil, fmt.Errorf("dataset %q listed twice", canon)
		}
		seen[canon] = true
		names = append(names, canon)
	}
	return names, nil
}

// compareSides runs both comparative endpoints up to their diff. It parses
// datasets= (parseCompareDatasets) and hands the remaining parameters to the
// route's own parser; then, per named dataset in request order, it pins that
// dataset's server, answers q through body — the strict executor path the
// standalone route also takes, so each side is bit-identical to querying
// that dataset alone — and stamps the pinned versions as X-Compare-Versions
// ("a:3,b:5"). On any failure it writes the error response itself and
// reports ok == false; otherwise the caller renders its diff table.
func compareSides[Q any, B interface{ datasetVersion() uint64 }](s *Server, w http.ResponseWriter, r *http.Request,
	parse func(raw string) (Q, error), body func(ts *Server, ctx context.Context, q Q) (B, error),
) (names []string, q Q, results map[string]B, ok bool) {
	vals, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad query string: %w", err))
		return
	}
	if names, err = parseCompareDatasets(vals); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	vals.Del("datasets")
	if q, err = parse(vals.Encode()); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	results = make(map[string]B, len(names))
	var versions strings.Builder
	for i, name := range names {
		ts, release, err := s.acquireTenant(r, name)
		if err != nil {
			s.writeTenantError(w, name, err)
			return
		}
		res, err := body(ts, r.Context(), q)
		release()
		if err != nil {
			s.writeBodyError(w, fmt.Errorf("dataset %s: %w", name, err))
			return
		}
		results[name] = res
		if i > 0 {
			versions.WriteByte(',')
		}
		fmt.Fprintf(&versions, "%s:%d", name, res.datasetVersion())
	}
	w.Header().Set("X-Compare-Versions", versions.String())
	return names, q, results, true
}

func (b condProbJSON) datasetVersion() uint64 { return b.DatasetVersion }
func (b ratesJSON) datasetVersion() uint64    { return b.DatasetVersion }

// condProbDiffJSON compares one dataset's condprob result to the baseline
// (first-named) dataset's.
type condProbDiffJSON struct {
	Dataset          string  `json:"dataset"`
	Baseline         string  `json:"baseline"`
	FactorRatio      float64 `json:"factor_ratio"`
	ConditionalRatio float64 `json:"conditional_ratio"`
	BaselineRatio    float64 `json:"baseline_ratio"`
	BothSignificant  bool    `json:"both_significant"`
}

// compareCondProbJSON is the /v1/compare/condprob response body.
type compareCondProbJSON struct {
	Datasets []string                `json:"datasets"`
	Anchor   string                  `json:"anchor"`
	Target   string                  `json:"target"`
	Window   string                  `json:"window"`
	Scope    string                  `json:"scope"`
	Group    int                     `json:"group"`
	Results  map[string]condProbJSON `json:"results"`
	Diff     []condProbDiffJSON      `json:"diff"`
}

// safeRatio returns b/a guarded for comparative tables: two zeros agree
// (ratio 1), a zero denominator with a nonzero numerator saturates.
func safeRatio(b, a float64) float64 {
	if a == 0 {
		if b == 0 {
			return 1
		}
		return math.MaxFloat64
	}
	return finite(b / a)
}

func (s *Server) handleCompareCondProb(w http.ResponseWriter, r *http.Request) {
	names, q, results, ok := compareSides(s, w, r, parseCondProbQuery, (*Server).condProbValue)
	if !ok {
		return
	}
	base := results[names[0]]
	diffs := make([]condProbDiffJSON, 0, len(names)-1)
	for _, name := range names[1:] {
		res := results[name]
		diffs = append(diffs, condProbDiffJSON{
			Dataset:          name,
			Baseline:         names[0],
			FactorRatio:      safeRatio(res.Factor, base.Factor),
			ConditionalRatio: safeRatio(res.Conditional.P, base.Conditional.P),
			BaselineRatio:    safeRatio(res.Baseline.P, base.Baseline.P),
			BothSignificant:  res.Significant && base.Significant,
		})
	}
	s.writeJSON(w, http.StatusOK, compareCondProbJSON{
		Datasets: names,
		Anchor:   q.anchor,
		Target:   q.target,
		Window:   trace.WindowName(q.window),
		Scope:    q.scope.String(),
		Group:    q.group,
		Results:  results,
		Diff:     diffs,
	})
}

// categoryRateDiffJSON compares one category's failure rate across two
// datasets.
type categoryRateDiffJSON struct {
	Category  string  `json:"category"`
	BaseRate  float64 `json:"base_per_node_year"`
	OtherRate float64 `json:"other_per_node_year"`
	Ratio     float64 `json:"ratio"`
}

// liftDiffJSON compares one anchor category's follow-up lift factor across
// two datasets.
type liftDiffJSON struct {
	Anchor      string  `json:"anchor"`
	BaseFactor  float64 `json:"base_factor"`
	OtherFactor float64 `json:"other_factor"`
	Ratio       float64 `json:"ratio"`
}

// ratesDiffJSON compares one dataset's rate tables to the baseline's.
type ratesDiffJSON struct {
	Dataset      string                 `json:"dataset"`
	Baseline     string                 `json:"baseline"`
	OverallRatio float64                `json:"overall_ratio"`
	Categories   []categoryRateDiffJSON `json:"categories"`
	Lift         []liftDiffJSON         `json:"lift"`
}

// compareRatesJSON is the /v1/compare/rates response body.
type compareRatesJSON struct {
	Datasets []string             `json:"datasets"`
	Window   string               `json:"window"`
	Scope    string               `json:"scope"`
	Results  map[string]ratesJSON `json:"results"`
	Diff     []ratesDiffJSON      `json:"diff"`
}

// ratioSortKey orders diff rows by how far the ratio is from parity, in
// log space so 2x and 0.5x rank equally.
func ratioSortKey(r float64) float64 {
	if r <= 0 {
		return math.Inf(1)
	}
	return math.Abs(math.Log(r))
}

func (s *Server) handleCompareRates(w http.ResponseWriter, r *http.Request) {
	names, q, results, ok := compareSides(s, w, r, parseRatesQuery, (*Server).ratesBody)
	if !ok {
		return
	}
	base := results[names[0]]
	diffs := make([]ratesDiffJSON, 0, len(names)-1)
	for _, name := range names[1:] {
		res := results[name]
		d := ratesDiffJSON{
			Dataset:      name,
			Baseline:     names[0],
			OverallRatio: safeRatio(res.Overall.PerNodeYear, base.Overall.PerNodeYear),
		}
		// Category and lift rows align by index: both sides emit the full
		// catalog in the same fixed order.
		for i, bc := range base.Categories {
			oc := res.Categories[i]
			d.Categories = append(d.Categories, categoryRateDiffJSON{
				Category:  bc.Category,
				BaseRate:  bc.PerNodeYear,
				OtherRate: oc.PerNodeYear,
				Ratio:     safeRatio(oc.PerNodeYear, bc.PerNodeYear),
			})
		}
		for i, bl := range base.Lift {
			ol := res.Lift[i]
			d.Lift = append(d.Lift, liftDiffJSON{
				Anchor:      bl.Anchor,
				BaseFactor:  bl.Factor,
				OtherFactor: ol.Factor,
				Ratio:       safeRatio(ol.Factor, bl.Factor),
			})
		}
		sort.SliceStable(d.Categories, func(i, j int) bool {
			ki, kj := ratioSortKey(d.Categories[i].Ratio), ratioSortKey(d.Categories[j].Ratio)
			if ki != kj {
				return ki > kj
			}
			return d.Categories[i].Category < d.Categories[j].Category
		})
		sort.SliceStable(d.Lift, func(i, j int) bool {
			ki, kj := ratioSortKey(d.Lift[i].Ratio), ratioSortKey(d.Lift[j].Ratio)
			if ki != kj {
				return ki > kj
			}
			return d.Lift[i].Anchor < d.Lift[j].Anchor
		})
		diffs = append(diffs, d)
	}
	s.writeJSON(w, http.StatusOK, compareRatesJSON{
		Datasets: names,
		Window:   trace.WindowName(q.window),
		Scope:    q.scope.String(),
		Results:  results,
		Diff:     diffs,
	})
}
