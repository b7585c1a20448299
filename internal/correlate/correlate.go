// Package correlate mines windowed event-correlation rules and vicinity
// anomalies from the versioned dataset store.
//
// The rule miner counts, per system and per time window w, ordered
// category pairs A→B at three spatial scopes: an anchor event of category A
// is a "satisfied" anchor for (A, B, scope) when at least one category-B
// event follows it within (t, t+w] on the same node (node scope), on a
// different node of the anchor's rack (rack scope), or on any other node of
// the system (system scope) — the LogMaster-style support/confidence rule
// mining of PAPERS.md adapted to the trace schema. All state is integer
// counts (PairCounts), so per-shard results merge bit-identically into the
// whole-fleet answer (MergeRuleCounts, in the mold of
// analysis.MergeCondResults), and support/confidence/lift derive from the
// merged integers afterwards.
//
// The Miner maintains those counts incrementally per store Append by
// reusing the analysis posting-list index: a new event flips exactly the
// anchors whose window it is the first matching follow-up for, found by
// binary search — no rescan of the log. MineNaive is the frozen reference
// implementation the differential tests pin the incremental path against,
// bit for bit.
//
// The vicinity anomaly detector (DetectAnomalies) scores each node's
// failure behavior — rate, category mix, burstiness — against its physical
// vicinity (rack-mates plus position peers from internal/layout), flagging
// nodes whose behavior deviates robustly from their neighbors'. It sorts
// each system's position classes once and selects every node's median and
// MAD by rank; DetectAnomaliesNaive, which materializes and sorts every
// node's vicinity, is the frozen reference it is pinned to bit for bit.
package correlate

import (
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// NumCategories is the rule-class space: the six root-cause categories of
// the trace schema, indexed by catIndex (trace.Category - 1).
const NumCategories = 6

// numScopes indexes Pairs by analysis.Scope - 1: node, rack, system.
const numScopes = 3

// Default rule thresholds: a rule needs at least DefaultMinSupport
// satisfied anchors and at least DefaultMinConfidence of its anchors
// satisfied. The calibration tests pin that planted simulator triggering
// pairs are recovered at exactly these defaults.
const (
	DefaultMinSupport    = 10
	DefaultMinConfidence = 0.05
)

// catIndex maps a category to its dense index, or -1 for invalid
// categories (which the miners skip entirely, as anchors and as targets).
func catIndex(c trace.Category) int {
	if c < trace.Environment || c > trace.Undetermined {
		return -1
	}
	return int(c) - 1
}

// scopeIndex maps an analysis scope to its Pairs index, or -1.
func scopeIndex(s analysis.Scope) int {
	switch s {
	case analysis.ScopeNode, analysis.ScopeRack, analysis.ScopeSystem:
		return int(s) - 1
	}
	return -1
}

// PairCounts is the integer counting state of one system for one window:
// how many events of each category occurred (the anchors), and per scope
// how many of them were satisfied by a follow-up of each category. Every
// derived statistic (support, confidence, lift) is a pure function of these
// integers, which is what makes sharded mining merge exactly.
type PairCounts struct {
	// Total is the number of (valid-category) events.
	Total int64 `json:"total"`
	// Anchors counts events per category.
	Anchors [NumCategories]int64 `json:"anchors"`
	// Pairs[scope-1][a][b] counts category-a anchors with at least one
	// category-b follow-up within the window at that scope.
	Pairs [numScopes][NumCategories][NumCategories]int64 `json:"pairs"`
}

// add accumulates o into c.
func (c *PairCounts) add(o *PairCounts) {
	c.Total += o.Total
	for a := range c.Anchors {
		c.Anchors[a] += o.Anchors[a]
	}
	for s := range c.Pairs {
		for a := range c.Pairs[s] {
			for b := range c.Pairs[s][a] {
				c.Pairs[s][a][b] += o.Pairs[s][a][b]
			}
		}
	}
}

// SystemCounts is one system's PairCounts.
type SystemCounts struct {
	System int `json:"system"`
	PairCounts
}

// RuleCounts is the mergeable mining result: per-system integer counts for
// one window, ascending by system ID. It is what crosses shard boundaries.
type RuleCounts struct {
	Window  time.Duration  `json:"window"`
	Systems []SystemCounts `json:"systems"`
}

// MergeRuleCounts combines rule counts mined over disjoint system sets into
// the counts for their union. Systems are independent in the mining
// semantics (pairs never cross system boundaries), so the union of
// per-system integer counts — summing on the (defensive) collision — is
// bit-identical to mining the union dataset at once; the scatter-gather
// serving path relies on that exactly like condprob relies on
// analysis.MergeCondResults. With one part it passes through untouched, and
// with none it yields the empty result a zero-system mine would.
func MergeRuleCounts(w time.Duration, parts []RuleCounts) RuleCounts {
	if len(parts) == 1 {
		return parts[0]
	}
	out := RuleCounts{Window: w}
	n := 0
	for _, p := range parts {
		n += len(p.Systems)
	}
	all := make([]SystemCounts, 0, n)
	for _, p := range parts {
		all = append(all, p.Systems...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].System < all[j].System })
	for _, sc := range all {
		if k := len(out.Systems); k > 0 && out.Systems[k-1].System == sc.System {
			out.Systems[k-1].add(&sc.PairCounts)
			continue
		}
		out.Systems = append(out.Systems, sc)
	}
	return out
}

// Aggregate sums the per-system counts into one PairCounts.
func (rc RuleCounts) Aggregate() PairCounts {
	var out PairCounts
	for i := range rc.Systems {
		out.add(&rc.Systems[i].PairCounts)
	}
	return out
}

// Filter returns the counts restricted to one system (0 keeps everything).
func (rc RuleCounts) Filter(system int) RuleCounts {
	if system == 0 {
		return rc
	}
	out := RuleCounts{Window: rc.Window}
	for _, sc := range rc.Systems {
		if sc.System == system {
			out.Systems = append(out.Systems, sc)
		}
	}
	return out
}

// Rule is one thresholded edge of the correlation-rule graph.
type Rule struct {
	// Anchor and Target are the rule's categories: Anchor failures are
	// followed by Target failures.
	Anchor trace.Category
	Target trace.Category
	// Scope is the spatial scope the follow-up was counted at.
	Scope analysis.Scope
	// Support is the number of satisfied anchors, Anchors the number of
	// anchor-category events, Confidence their ratio.
	Support    int64
	Anchors    int64
	Confidence float64
	// Lift is Confidence over the unconditional satisfaction rate of the
	// target category (any-anchor confidence): how much more likely a
	// Target follow-up is after an Anchor event than after a random event.
	Lift float64
}

// Rules derives the support/confidence-thresholded rule graph for one scope
// from aggregated counts, ordered by (anchor, target) category. minSupport
// and minConfidence at or below zero take the defaults.
func (c *PairCounts) Rules(scope analysis.Scope, minSupport int64, minConfidence float64) []Rule {
	si := scopeIndex(scope)
	if si < 0 {
		return nil
	}
	if minSupport <= 0 {
		minSupport = DefaultMinSupport
	}
	if minConfidence <= 0 {
		minConfidence = DefaultMinConfidence
	}
	var colSum [NumCategories]int64
	for a := 0; a < NumCategories; a++ {
		for b := 0; b < NumCategories; b++ {
			colSum[b] += c.Pairs[si][a][b]
		}
	}
	var out []Rule
	for a := 0; a < NumCategories; a++ {
		anchors := c.Anchors[a]
		if anchors == 0 {
			continue
		}
		for b := 0; b < NumCategories; b++ {
			support := c.Pairs[si][a][b]
			conf := float64(support) / float64(anchors)
			if support < minSupport || conf < minConfidence {
				continue
			}
			r := Rule{
				Anchor:     trace.Category(a + 1),
				Target:     trace.Category(b + 1),
				Scope:      scope,
				Support:    support,
				Anchors:    anchors,
				Confidence: conf,
			}
			// The any-anchor satisfaction rate of b: every anchor has
			// exactly one category, so the column sum over anchors is the
			// satisfied count among all Total events.
			if c.Total > 0 && colSum[b] > 0 {
				r.Lift = conf / (float64(colSum[b]) / float64(c.Total))
			}
			out = append(out, r)
		}
	}
	return out
}
