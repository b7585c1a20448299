package analysis

import (
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// NodeCounts holds the per-node failure totals of one system (Figure 4).
type NodeCounts struct {
	System int
	// Counts[n] is the number of failures of node n.
	Counts []int
	// Mean is the average count across nodes.
	Mean float64
	// MaxNode is the node with the highest count.
	MaxNode int
	// EqualRates is the chi-square test of the null that every node fails
	// at the same rate.
	EqualRates stats.TestResult
	// EqualRatesSansZero repeats the test with node 0 removed.
	EqualRatesSansZero stats.TestResult
}

// FailuresPerNode computes Figure 4 for one system: the per-node failure
// counts and the chi-square equal-rates tests (with and without node 0).
func (a *Analyzer) FailuresPerNode(system int) NodeCounts {
	info, _ := a.DS.System(system)
	out := NodeCounts{System: system, Counts: make([]int, info.Nodes)}
	for _, f := range a.SystemFailures(system) {
		if f.Node >= 0 && f.Node < info.Nodes {
			out.Counts[f.Node]++
		}
	}
	total := 0
	for n, c := range out.Counts {
		total += c
		if c > out.Counts[out.MaxNode] {
			out.MaxNode = n
		}
	}
	if info.Nodes > 0 {
		out.Mean = float64(total) / float64(info.Nodes)
	}
	counts := stats.Ints(out.Counts)
	exposure := make([]float64, len(counts))
	for i := range exposure {
		exposure[i] = 1
	}
	if r, err := stats.ChiSquareEqualRates(counts, exposure); err == nil {
		out.EqualRates = r
	}
	if len(counts) > 2 {
		if r, err := stats.ChiSquareEqualRates(counts[1:], exposure[1:]); err == nil {
			out.EqualRatesSansZero = r
		}
	}
	return out
}

// Breakdown is a root-cause share vector (fractions summing to 1 over the
// six categories), used by Figure 5.
type Breakdown struct {
	// Share is indexed by the position of the category in
	// trace.Categories.
	Share map[trace.Category]float64
	// Total is the number of failures the shares are over.
	Total int
}

// Dominant returns the category with the largest share.
func (b Breakdown) Dominant() trace.Category {
	best := trace.Category(0)
	bestV := -1.0
	for _, c := range trace.Categories {
		if v := b.Share[c]; v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// RootCauseBreakdown computes the root-cause shares for the failures of
// the selected nodes of a system (Figure 5 compares node 0 against the
// rest). A nil filter selects every node.
func (a *Analyzer) RootCauseBreakdown(system int, nodeFilter func(int) bool) Breakdown {
	b := Breakdown{Share: make(map[trace.Category]float64, len(trace.Categories))}
	counts := make(map[trace.Category]int, len(trace.Categories))
	for _, f := range a.SystemFailures(system) {
		if nodeFilter != nil && !nodeFilter(f.Node) {
			continue
		}
		counts[f.Category]++
		b.Total++
	}
	if b.Total == 0 {
		return b
	}
	for _, c := range trace.Categories {
		b.Share[c] = float64(counts[c]) / float64(b.Total)
	}
	return b
}

// NodeVsRest compares the probability that node 0 (or any singled-out
// node) experiences a failure of one type within a random window against
// the same probability for an average remaining node — one bar pair of
// Figure 6.
type NodeVsRest struct {
	System   int
	Node     int
	Window   time.Duration
	Pred     string
	NodeProb stats.Proportion
	RestProb stats.Proportion
	// Homogeneity is the chi-square test that all nodes share the type's
	// failure rate.
	Homogeneity stats.TestResult
}

// Factor returns the node-over-rest probability ratio.
func (r NodeVsRest) Factor() float64 { return r.NodeProb.FactorOver(r.RestProb) }

// NodeVsRestProb computes one Figure 6 comparison: windows of length w are
// tiled over the system's period; the singled-out node's windows-with-a-
// matching-failure proportion is compared to the pooled proportion of all
// other nodes. The chi-square homogeneity test uses per-node failure
// counts of the matching type.
func (a *Analyzer) NodeVsRestProb(system, node int, w time.Duration, label string, pred trace.Pred) NodeVsRest {
	info, _ := a.DS.System(system)
	out := NodeVsRest{System: system, Node: node, Window: w, Pred: label}
	nw := int(info.Period.Duration() / w)
	if nw <= 0 || info.Nodes < 2 {
		return out
	}
	// Windows with >=1 matching failure, per node.
	hit := make([]map[int]bool, info.Nodes)
	perNodeCount := make([]float64, info.Nodes)
	for _, f := range a.SystemFailures(system) {
		if !pred.Match(f) || f.Node < 0 || f.Node >= info.Nodes {
			continue
		}
		perNodeCount[f.Node]++
		wi := int(f.Time.Sub(info.Period.Start) / w)
		if wi < 0 || wi >= nw {
			continue
		}
		if hit[f.Node] == nil {
			hit[f.Node] = make(map[int]bool)
		}
		hit[f.Node][wi] = true
	}
	for n := 0; n < info.Nodes; n++ {
		s := len(hit[n])
		if n == node {
			out.NodeProb = stats.Proportion{Successes: s, Trials: nw}
		} else {
			out.RestProb.Successes += s
			out.RestProb.Trials += nw
		}
	}
	exposure := make([]float64, info.Nodes)
	for i := range exposure {
		exposure[i] = 1
	}
	if r, err := stats.ChiSquareEqualRates(perNodeCount, exposure); err == nil {
		out.Homogeneity = r
	}
	return out
}

// TopFailingNodes returns the node IDs of a system ordered by descending
// failure count, limited to k (all nodes when k <= 0).
func (a *Analyzer) TopFailingNodes(system, k int) []int {
	nc := a.FailuresPerNode(system)
	idx := make([]int, len(nc.Counts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return nc.Counts[idx[i]] > nc.Counts[idx[j]] })
	if k > 0 && k < len(idx) {
		idx = idx[:k]
	}
	return idx
}
