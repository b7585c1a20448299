package analysis

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// Scope selects the spatial granularity of a conditional-probability
// question, matching the paper's three levels.
type Scope int

const (
	// ScopeNode asks about follow-up failures of the same node.
	ScopeNode Scope = iota + 1
	// ScopeRack asks about failures of the other nodes in the anchor
	// node's rack (systems with layouts only).
	ScopeRack
	// ScopeSystem asks about failures of the other nodes in the anchor
	// node's system.
	ScopeSystem
)

// String names the scope.
func (s Scope) String() string {
	switch s {
	case ScopeNode:
		return "node"
	case ScopeRack:
		return "rack"
	case ScopeSystem:
		return "system"
	default:
		return "scope(?)"
	}
}

// CondResult is one conditional-vs-baseline probability comparison — the
// unit of every bar in Figures 1, 2, 3, 10, 11 and 13.
type CondResult struct {
	// Window is the look-ahead window length.
	Window time.Duration
	// Scope is the spatial granularity.
	Scope Scope
	// Conditional is P(target event in window | anchor event), estimated
	// over all anchors.
	Conditional stats.Proportion
	// Baseline is P(target event in a random window for a random node).
	Baseline stats.Proportion
	// CondCI and BaseCI are 95% Wilson intervals.
	CondCI stats.Interval
	BaseCI stats.Interval
	// FactorCI is a 95% delta-method interval for the conditional-over-
	// baseline ratio (NaN bounds when either side has no successes).
	FactorCI stats.Interval
	// Test is the two-sample z-test of conditional vs baseline.
	Test stats.TestResult
}

// Factor returns the increase of the conditional over the baseline (the
// "NX" annotations of the paper's figures).
func (r CondResult) Factor() float64 { return r.Conditional.FactorOver(r.Baseline) }

// Significant reports whether the conditional differs from the baseline at
// level alpha.
func (r CondResult) Significant(alpha float64) bool { return r.Test.Significant(alpha) }

// finishCond fills the derived fields of a CondResult.
func finishCond(r *CondResult) {
	r.CondCI = r.Conditional.WilsonCI(0.95)
	r.BaseCI = r.Baseline.WilsonCI(0.95)
	r.FactorCI = stats.RatioCI(r.Conditional, r.Baseline, 0.95)
	if r.Conditional.Valid() && r.Baseline.Valid() {
		if t, err := stats.TwoProportionZTest(r.Conditional, r.Baseline); err == nil {
			r.Test = t
		} else {
			r.Test = stats.TestResult{Stat: math.NaN(), P: math.NaN()}
		}
	} else {
		r.Test = stats.TestResult{Stat: math.NaN(), P: math.NaN()}
	}
}

// emptyCond is the zero-trial result a non-positive window answers with.
func emptyCond(w time.Duration, scope Scope) CondResult {
	res := CondResult{Window: w, Scope: scope}
	finishCond(&res)
	return res
}

// errWindow reports a window that cannot hold a follow-up failure.
func errWindow(w time.Duration) error {
	return fmt.Errorf("analysis: window %v is not positive", w)
}

// BaselineNodeProb estimates the probability that a random node of the
// given systems experiences at least one failure matching pred within a
// random window of length w: each system's measurement period is cut into
// consecutive windows and every (node, window) cell is one trial. It
// answers from the dataset index; BaselineNodeProbNaive is the reference
// scan it must agree with. A cell's window index is (offset + base - start)
// / w on the integer timeline, the naive scan's truncating Duration
// division. Window indices arrive nondecreasing per node, so one remembered
// index per node deduplicates its cells. A non-positive w cuts no windows:
// the result is zero trials.
func (a *Analyzer) BaselineNodeProb(systems []trace.SystemInfo, w time.Duration, pred trace.Pred) stats.Proportion {
	if w <= 0 {
		return stats.Proportion{}
	}
	if a.didx == nil {
		return a.BaselineNodeProbNaive(systems, w, pred)
	}
	cls, fil := routePred(pred)
	last := newNodeSlots(systems) // 1 + the node's last marked window index
	successes, trials := 0, 0
	for _, s := range systems {
		nw := int(s.Period.Duration() / w)
		if nw <= 0 {
			continue
		}
		trials += nw * s.Nodes
		si := a.didx.system(s.ID)
		if si == nil || len(si.tl) == 0 {
			continue
		}
		last.reset(s.Nodes)
		// Integer cells unless base - start, or an offset from it, leaves
		// Duration's range, where Sub saturates.
		bs, exact := offsetOf(si.base, s.Period.Start)
		exact = exact && !si.wide && (bs <= 0 || si.tl[len(si.tl)-1] <= math.MaxInt64-bs)
		for _, p := range si.byClass[cls] {
			f := &si.fails[p]
			if fil != nil && !fil.Match(*f) {
				continue
			}
			d := time.Duration(si.tl[p] + bs)
			if !exact {
				d = f.Time.Sub(s.Period.Start)
			}
			wi := int64(d / w)
			if wi < 0 || wi >= int64(nw) {
				continue
			}
			if c := last.at(f.Node); *c != wi+1 {
				*c = wi + 1
				successes++
			}
		}
	}
	return stats.Proportion{Successes: successes, Trials: trials}
}

// BaselineNodeProbNaive is the reference implementation of
// BaselineNodeProb: a full scan with map-based cell deduplication. It is
// retained for differential tests and benchmarks against the indexed path
// and reads only DS, never the index it checks.
func (a *Analyzer) BaselineNodeProbNaive(systems []trace.SystemInfo, w time.Duration, pred trace.Pred) stats.Proportion {
	return newFailureScan(a.DS, systems).baseline(systems, w, pred)
}

// baseline is BaselineNodeProbNaive over the scan.
func (sc *failureScan) baseline(systems []trace.SystemInfo, w time.Duration, pred trace.Pred) stats.Proportion {
	if w <= 0 {
		return stats.Proportion{}
	}
	successes, trials := 0, 0
	for _, s := range systems {
		nw := int(s.Period.Duration() / w)
		if nw <= 0 {
			continue
		}
		trials += nw * s.Nodes
		// Mark (node, window) cells with a matching failure.
		type cell struct{ node, win int }
		seen := make(map[cell]bool)
		for _, f := range sc.sys[s.ID] {
			if !pred.Match(f) {
				continue
			}
			wi := int(f.Time.Sub(s.Period.Start) / w)
			if wi < 0 || wi >= nw {
				continue
			}
			c := cell{f.Node, wi}
			if !seen[c] {
				seen[c] = true
				successes++
			}
		}
	}
	return stats.Proportion{Successes: successes, Trials: trials}
}

// CondProb estimates P(target in the w-window after an anchor | anchor) at
// the given scope over the given systems, against the matching baseline:
//
//   - ScopeNode: for each failure matching anchorPred, success when the
//     same node has a later failure matching targetPred within w. Baseline:
//     BaselineNodeProb(targetPred).
//   - ScopeRack: every (anchor, rack-mate) pair is a trial; success when
//     that rack-mate fails within w. Same baseline — the paper compares the
//     per-node probability against the random-week probability.
//   - ScopeSystem: every (anchor, other-node) pair is a trial.
//
// Systems without layouts contribute no rack-scope trials. A non-positive
// w holds no follow-up, so the answer is the zero-trial result (CondProbCtx
// reports it as an error).
func (a *Analyzer) CondProb(systems []trace.SystemInfo, anchorPred, targetPred trace.Pred, w time.Duration, scope Scope) CondResult {
	res, _ := a.CondProbCtx(context.Background(), systems, anchorPred, targetPred, w, scope)
	return res
}

// CondProbCtx is CondProb with cooperative cancellation: the scan checks ctx
// once per system and every 1024 anchors, and returns ctx.Err() with a
// partial (unfinished) result as soon as the context is done. This is the
// hot loop of every figure, so it is the cancellation point for the whole
// experiment suite.
//
// It answers from the dataset index in one time-ordered sweep per system
// over the anchor class's posting list (clipped to the period by one binary
// search) and the target class's, counting the targets inside each anchor's
// window per node (see sweep). CondProbNaiveCtx is the reference scan the
// sweep must agree with bit for bit. A non-positive w is an error.
func (a *Analyzer) CondProbCtx(ctx context.Context, systems []trace.SystemInfo, anchorPred, targetPred trace.Pred, w time.Duration, scope Scope) (CondResult, error) {
	if w <= 0 {
		return emptyCond(w, scope), errWindow(w)
	}
	if a.didx == nil {
		return a.CondProbNaiveCtx(ctx, systems, anchorPred, targetPred, w, scope)
	}
	res := CondResult{Window: w, Scope: scope}
	res.Baseline = a.BaselineNodeProb(systems, w, targetPred)

	aCls, aFil := routePred(anchorPred)
	tCls, tFil := routePred(targetPred)
	sw := sweep{count: newNodeSlots(systems)}
	scanned := 0
	for _, s := range systems {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		si := a.didx.system(s.ID)
		if si == nil || scope == ScopeRack && len(si.racks.ids) == 0 {
			continue
		}
		if si.wide {
			// No exact integer timeline: answer this system by reference.
			part, err := a.CondProbNaiveCtx(ctx, []trace.SystemInfo{s}, anchorPred, targetPred, w, scope)
			res.Conditional.Trials += part.Conditional.Trials
			res.Conditional.Successes += part.Conditional.Successes
			if err != nil {
				return res, err
			}
			continue
		}
		// Clip anchors whose window would extend past the measurement
		// period, so truncated exposure does not dilute the estimate.
		anchors := si.byClass[aCls]
		anchors = anchors[:si.upperBoundAnchors(anchors, s.Period.End, w)]
		if len(anchors) == 0 {
			continue
		}
		sw.reset(si, s.Nodes, tFil)
		targets := si.byClass[tCls]
		for _, p := range anchors {
			scanned++
			if scanned%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return res, err
				}
			}
			f := &si.fails[p]
			if aFil != nil && !aFil.Match(*f) {
				continue
			}
			if w > time.Nanosecond {
				sw.advance(targets, si.tl[p], int64(w))
			}
			self := int(min(*sw.count.at(f.Node), 1))
			switch scope {
			case ScopeNode:
				res.Conditional.Trials++
				res.Conditional.Successes += self
			case ScopeRack:
				if r, placed := si.racks.rackOf(f.Node); placed {
					res.Conditional.Trials += int(si.racks.size[r]) - 1
					res.Conditional.Successes += int(sw.rackActive[r]) - self
				}
			case ScopeSystem:
				res.Conditional.Trials += s.Nodes - 1
				res.Conditional.Successes += sw.distinct - self
			}
		}
	}
	finishCond(&res)
	return res, nil
}

// sweep is one query's window over one system's target posting list. The
// targets at list positions [lo, hi) are those in the current anchor's
// window [t+1ns, t+w), counted per node (the residual filter applied on
// entry and exit); distinct counts the nodes with a nonzero count, and
// rackActive those of each rack ordinal. An anchor on node n answers its
// scope in O(1): node success iff count[n] > 0, rack-mate successes
// rackActive[rack(n)] - self, other-node successes distinct - self. Anchors
// only move lo and hi forward: O(anchors + targets) per system.
type sweep struct {
	si         *systemIndex
	fil        trace.Pred
	lo, hi     int
	count      nodeSlots
	distinct   int
	rackActive []int64
}

// reset empties the window for a sweep over si.
func (sw *sweep) reset(si *systemIndex, nodes int, fil trace.Pred) {
	sw.si, sw.fil, sw.lo, sw.hi, sw.distinct = si, fil, 0, 0, 0
	sw.count.reset(nodes)
	sw.rackActive = append(sw.rackActive[:0], make([]int64, len(si.racks.ids))...)
}

// advance moves the window to the anchor at offset ta: targets at or before
// ta leave, then targets before ta+w enter. An emptied window skips to ta by
// binary search, so sparse anchors over dense targets stay logarithmic.
func (sw *sweep) advance(targets []int32, ta, w int64) {
	tl := sw.si.tl
	for sw.lo < sw.hi && tl[targets[sw.lo]] <= ta {
		sw.bump(targets[sw.lo], -1)
		sw.lo++
	}
	if sw.lo == sw.hi {
		sw.hi += upTo(tl, targets[sw.hi:], ta)
		sw.lo = sw.hi
	}
	// Offsets are nonnegative, so the difference cannot overflow.
	for sw.hi < len(targets) && tl[targets[sw.hi]]-ta < w {
		sw.bump(targets[sw.hi], 1)
		sw.hi++
	}
}

// bump adds d to the window count of the node of the target at position p,
// keeping distinct and rackActive in step with counts turning 0 or 1.
func (sw *sweep) bump(p int32, d int64) {
	f := &sw.si.fails[p]
	if sw.fil != nil && !sw.fil.Match(*f) {
		return
	}
	c := sw.count.at(f.Node)
	if *c += d; *c != max(d, 0) {
		return
	}
	sw.distinct += int(d)
	if r, ok := sw.si.racks.rackOf(f.Node); ok {
		sw.rackActive[r] += d
	}
}

// nodeSlots is one query's per-node scratch, dense over [0, nodes) with a
// side map for node IDs outside that range.
type nodeSlots struct {
	dense []int64
	over  map[int]*int64
}

// newNodeSlots reserves the dense range of the largest of systems.
func newNodeSlots(systems []trace.SystemInfo) nodeSlots {
	n := 0
	for _, s := range systems {
		n = max(n, s.Nodes)
	}
	return nodeSlots{dense: make([]int64, 0, n), over: make(map[int]*int64)}
}

// reset zeroes every slot and sets the dense range to [0, nodes).
func (ns *nodeSlots) reset(nodes int) {
	ns.dense = append(ns.dense[:0], make([]int64, max(nodes, 0))...)
	clear(ns.over)
}

// at returns the node's slot.
func (ns *nodeSlots) at(n int) *int64 {
	if uint(n) < uint(len(ns.dense)) {
		return &ns.dense[n]
	}
	c := ns.over[n]
	if c == nil {
		c = new(int64)
		ns.over[n] = c
	}
	return c
}

// CondProbNaive is CondProbNaiveCtx without cancellation.
func (a *Analyzer) CondProbNaive(systems []trace.SystemInfo, anchorPred, targetPred trace.Pred, w time.Duration, scope Scope) CondResult {
	res, _ := a.CondProbNaiveCtx(context.Background(), systems, anchorPred, targetPred, w, scope)
	return res
}

// CondProbNaiveCtx is the reference implementation of CondProbCtx: a full
// scan of every system's failures with per-anchor probes. It is retained
// for differential tests and benchmarks against the indexed path and must
// stay semantically frozen. It reads only DS (see failureScan), so it
// checks the dataset index instead of sharing its answers. A non-positive
// w is an error, as for CondProbCtx.
func (a *Analyzer) CondProbNaiveCtx(ctx context.Context, systems []trace.SystemInfo, anchorPred, targetPred trace.Pred, w time.Duration, scope Scope) (CondResult, error) {
	if w <= 0 {
		return emptyCond(w, scope), errWindow(w)
	}
	res := CondResult{Window: w, Scope: scope}
	sc := newFailureScan(a.DS, systems)
	res.Baseline = sc.baseline(systems, w, targetPred)

	scanned := 0
	for _, s := range systems {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		lay := a.DS.Layouts[s.ID]
		if scope == ScopeRack && lay == nil {
			continue
		}
		for _, f := range sc.sys[s.ID] {
			scanned++
			if scanned%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return res, err
				}
			}
			if !anchorPred.Match(f) {
				continue
			}
			// Clip windows that would extend past the measurement period,
			// so truncated exposure does not dilute the estimate.
			end := f.Time.Add(w)
			if end.After(s.Period.End) {
				continue
			}
			iv := trace.Interval{Start: f.Time.Add(time.Nanosecond), End: end}
			switch scope {
			case ScopeNode:
				res.Conditional.Trials++
				if sc.nodeAny(s.ID, f.Node, iv, targetPred) {
					res.Conditional.Successes++
				}
			case ScopeRack:
				mates := lay.RackMates(f.Node)
				for _, m := range mates {
					res.Conditional.Trials++
					if sc.nodeAny(s.ID, m, iv, targetPred) {
						res.Conditional.Successes++
					}
				}
			case ScopeSystem:
				// Count distinct other nodes with a matching failure in
				// the window by scanning the window once.
				res.Conditional.Trials += s.Nodes - 1
				res.Conditional.Successes += sc.distinctOtherNodes(s.ID, f.Node, iv, targetPred)
			}
		}
	}
	finishCond(&res)
	return res, nil
}

// failureScan is the naive references' own view of the failure log: each
// requested system's failures in dataset order, and per node the positions
// of its failures in that slice (built on the first node probe; the
// baseline and system scope never need them). It is built from
// DS.Failures on every call, so the references never read the DatasetIndex
// they check.
type failureScan struct {
	sys  map[int][]trace.Failure
	node map[trace.NodeKey][]int
}

// newFailureScan splits ds's failures of the given systems by system.
func newFailureScan(ds *trace.Dataset, systems []trace.SystemInfo) *failureScan {
	sc := &failureScan{sys: make(map[int][]trace.Failure, len(systems))}
	for _, s := range systems {
		sc.sys[s.ID] = nil
	}
	for _, f := range ds.Failures {
		if fs, ok := sc.sys[f.System]; ok {
			sc.sys[f.System] = append(fs, f)
		}
	}
	return sc
}

// nodeAny reports whether the node has a failure matching pred inside iv,
// by binary search over its positions.
func (sc *failureScan) nodeAny(system, node int, iv trace.Interval, pred trace.Pred) bool {
	if sc.node == nil {
		sc.node = make(map[trace.NodeKey][]int)
		for id, fs := range sc.sys {
			for i, f := range fs {
				k := trace.NodeKey{System: id, Node: f.Node}
				sc.node[k] = append(sc.node[k], i)
			}
		}
	}
	fs := sc.sys[system]
	idxs := sc.node[trace.NodeKey{System: system, Node: node}]
	i := sort.Search(len(idxs), func(i int) bool { return !fs[idxs[i]].Time.Before(iv.Start) })
	for ; i < len(idxs) && fs[idxs[i]].Time.Before(iv.End); i++ {
		if pred.Match(fs[idxs[i]]) {
			return true
		}
	}
	return false
}

// distinctOtherNodes counts distinct nodes (excluding exclude) with at
// least one failure matching pred in iv.
func (sc *failureScan) distinctOtherNodes(system, exclude int, iv trace.Interval, pred trace.Pred) int {
	seen := make(map[int]bool)
	for _, f := range sc.windowFailures(system, iv) {
		if f.Node == exclude || seen[f.Node] {
			continue
		}
		if pred.Match(f) {
			seen[f.Node] = true
		}
	}
	return len(seen)
}

// windowFailures returns the failures of a system inside iv, by binary
// search.
func (sc *failureScan) windowFailures(system int, iv trace.Interval) []trace.Failure {
	all := sc.sys[system]
	lo := sort.Search(len(all), func(i int) bool { return !all[i].Time.Before(iv.Start) })
	hi := sort.Search(len(all), func(i int) bool { return !all[i].Time.Before(iv.End) })
	return all[lo:hi]
}

// FollowUp is a labelled CondResult, one bar of a figure.
type FollowUp struct {
	Label string
	CondResult
}

// FollowUpByType computes, for every anchor category, the probability that
// the target (any failure by default) follows within w at the given scope —
// Figure 1a (ScopeNode), Figure 2a (ScopeRack) and Figure 3 (ScopeSystem).
func (a *Analyzer) FollowUpByType(systems []trace.SystemInfo, w time.Duration, scope Scope) []FollowUp {
	bars := figureBars()
	out := make([]FollowUp, len(bars))
	Shared().ForEach(len(bars), func(i int) {
		out[i] = FollowUp{Label: bars[i].label, CondResult: a.CondProb(systems, bars[i].pred, nil, w, scope)}
	})
	return out
}

// figureBar is one labelled predicate of the paper's per-type figures.
type figureBar struct {
	label string
	pred  trace.Pred
}

// figureBars returns the six categories in figure order, then the Memory
// and CPU hardware leaves (the right-most bars of the paper's figures).
func figureBars() []figureBar {
	bars := make([]figureBar, 0, len(trace.FigureOrder)+2)
	for _, c := range trace.FigureOrder {
		bars = append(bars, figureBar{c.String(), trace.CategoryPred(c)})
	}
	for _, hw := range []trace.HWComponent{trace.Memory, trace.CPU} {
		bars = append(bars, figureBar{"HW/" + hw.String(), trace.HWPred(hw)})
	}
	return bars
}

// PairwiseResult holds the three bars of one Figure 1b / 2b group for a
// target type Y: the probability of a Y failure after any failure, after a
// failure of the same type, and in a random window.
type PairwiseResult struct {
	Label     string
	AfterAny  CondResult
	AfterSame CondResult
}

// PairwiseByType computes the same-type and any-type conditionals for every
// category (plus Memory and CPU), at the given scope and window — Figures
// 1b and 2b.
func (a *Analyzer) PairwiseByType(systems []trace.SystemInfo, w time.Duration, scope Scope) []PairwiseResult {
	groups := figureBars()
	out := make([]PairwiseResult, len(groups))
	Shared().ForEach(len(groups), func(i int) {
		g := groups[i]
		out[i] = PairwiseResult{
			Label:     g.label,
			AfterAny:  a.CondProb(systems, nil, g.pred, w, scope),
			AfterSame: a.CondProb(systems, g.pred, g.pred, w, scope),
		}
	})
	return out
}

// PairMatrix computes the full pairwise conditional probability matrix
// p(x, y) = P(type-y failure within w after a type-x failure) at ScopeNode,
// the quantity behind Section III.A.3. Rows and columns follow
// trace.Categories order.
func (a *Analyzer) PairMatrix(systems []trace.SystemInfo, w time.Duration) [][]CondResult {
	n := len(trace.Categories)
	out := make([][]CondResult, n)
	for i := range out {
		out[i] = make([]CondResult, n)
	}
	Shared().ForEach(n*n, func(k int) {
		i, j := k/n, k%n
		out[i][j] = a.CondProb(systems, trace.CategoryPred(trace.Categories[i]), trace.CategoryPred(trace.Categories[j]), w, ScopeNode)
	})
	return out
}
