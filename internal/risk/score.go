package risk

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// Contribution is one active event's effect on a node's score.
type Contribution struct {
	// Event is the anchor event.
	Event trace.Failure
	// Scope is how the event reaches the scored node: node scope for the
	// node's own events, rack scope for rack-mates, system scope for the
	// rest of the system.
	Scope analysis.Scope
	// Age is how long before the query instant the event occurred.
	Age time.Duration
	// Weight is the remaining window fraction in [0,1]; contributions
	// decay linearly as the event ages out of the window.
	Weight float64
	// Conditional is the lift table's P(failure within window | event) at
	// this scope.
	Conditional float64
	// Excess is the decayed probability mass the event adds over the base
	// rate, after weighting.
	Excess float64
}

// Score is one node's follow-up-failure risk at one instant.
type Score struct {
	// System and Node identify the scored node.
	System int
	Node   int
	// At is the query instant.
	At time.Time
	// Risk is P(failure within the engine window starting at At), in
	// [Base, 1).
	Risk float64
	// Lo and Hi bound Risk by propagating the lift table's 95% confidence
	// intervals through the same combination (a plug-in bound, not a joint
	// interval).
	Lo, Hi float64
	// Base is the node's random-window base rate (per-system baseline).
	Base float64
	// Factor is Risk over Base — the live analogue of the paper's "NX"
	// annotations.
	Factor float64
	// Contributions lists the active events that shaped the score, newest
	// first. Empty at base rate.
	Contributions []Contribution
}

// Scores fold independent excess probabilities over a base rate:
// risk = 1 - (1-base) * prod(1-excess_i), the noisy-or of the base hazard
// and each anchor's decayed extra hazard. The fold is split in two so a
// risk can be computed without building any slice: accumulate folds one
// excess into the running no-failure product (which starts at 1), and
// finish applies the product to the base rate. The result is monotone in
// every input and stays in [base, 1).
func accumulate(miss, excess float64) float64 {
	if excess > 0 {
		miss *= 1 - math.Min(excess, 1)
	}
	return miss
}

// finish turns a running no-failure product into a risk over base; see
// accumulate.
func finish(base, miss float64) float64 {
	if math.IsNaN(base) || base < 0 {
		base = 0
	}
	if base > 1 {
		base = 1
	}
	if miss == 1 {
		// No excess mass: the risk is exactly the base rate, without the
		// rounding 1-(1-base) would introduce.
		return base
	}
	return 1 - (1-base)*miss
}

// Score computes the node's risk at the given instant from the events
// currently inside the window (events strictly newer than now are ignored:
// the engine answers "as of now" even if the feed ran ahead).
func (e *Engine) Score(system, node int, now time.Time) (Score, error) {
	s, ok := e.systems[system]
	if !ok {
		return Score{}, fmt.Errorf("risk: unknown system %d", system)
	}
	if node < 0 || node >= s.Nodes {
		return Score{}, fmt.Errorf("risk: node %d out of range [0,%d) for system %d", node, s.Nodes, system)
	}
	e.mu.RLock()
	evs := e.windowEvents(system, now)
	sc := e.scoreFromLifts(s, node, now, e.liftsFor(s, now, evs))
	e.mu.RUnlock()
	return sc, nil
}

// windowEvents returns the retained events of a system inside (now-W, now],
// newest last. Callers must hold e.mu.
func (e *Engine) windowEvents(system int, now time.Time) []trace.Failure {
	evs := e.events[system]
	lo := sort.Search(len(evs), func(i int) bool {
		return evs[i].Time.After(now.Add(-e.window))
	})
	hi := sort.Search(len(evs), func(i int) bool {
		return evs[i].Time.After(now)
	})
	return evs[lo:hi]
}

// scopeLift is one event's precomputed contribution at one scope: the
// clamped conditional, the decayed excess over the system base rate, and
// the CI-propagated excess bounds. None of these depend on the scored node,
// only on which scope connects the node to the event.
type scopeLift struct {
	ok             bool
	cond           float64
	excess, lo, hi float64
}

// eventLift is one in-window event with everything node-independent
// precomputed: age, decay weight, the event node's rack, and the lift at
// each of the three scopes. Scoring a node against an event reduces to one
// scope selection and array reads.
type eventLift struct {
	f      trace.Failure
	rack   int // rack of f.Node, -1 when unknown or unplaced
	age    time.Duration
	weight float64
	scopes [3]scopeLift // indexed by Scope-1
}

// scopeFor returns the scope that connects the event to a node sitting in
// nodeRack (-1 when unknown or unplaced).
func (el *eventLift) scopeFor(node, nodeRack int) analysis.Scope {
	switch {
	case el.f.Node == node:
		return analysis.ScopeNode
	case nodeRack >= 0 && el.rack == nodeRack:
		return analysis.ScopeRack
	}
	return analysis.ScopeSystem
}

// systemLifts carries one system's precomputed scoring state for one query
// instant: the clamped base rate with its CI bounds, and the in-window
// events newest first.
type systemLifts struct {
	base, baseLo, baseHi float64
	lifts                []eventLift
}

// liftsFor precomputes the node-independent half of scoring: per-event
// ages, weights and per-scope lifts, plus the system base rate. Building it
// once per (system, instant) turns TopK from events x nodes table lookups
// into events lookups plus events x nodes scope selections, with results
// bit-identical to scoring each node from scratch. Callers must hold e.mu.
func (e *Engine) liftsFor(s trace.SystemInfo, now time.Time, evs []trace.Failure) *systemLifts {
	base := e.table.SystemBaseline(s.ID)
	baseCI := base.WilsonCI(0.95)
	sl := &systemLifts{
		base:   clamp01(base.P()),
		baseLo: clamp01(baseCI.Lo),
		baseHi: clamp01(baseCI.Hi),
		lifts:  make([]eventLift, 0, len(evs)),
	}
	lay := e.layouts[s.ID]
	for i := len(evs) - 1; i >= 0; i-- {
		f := evs[i]
		el := eventLift{f: f, rack: -1, age: now.Sub(f.Time)}
		weight := 1 - float64(el.age)/float64(e.window)
		el.weight = math.Min(1, math.Max(0, weight))
		if lay != nil {
			el.rack = lay.Rack(f.Node)
		}
		for _, scope := range []analysis.Scope{analysis.ScopeNode, analysis.ScopeRack, analysis.ScopeSystem} {
			entry, ok := e.table.Lookup(f, scope)
			if !ok || !entry.Result.Conditional.Valid() {
				continue
			}
			cond := clamp01(entry.Result.Conditional.P())
			el.scopes[scope-1] = scopeLift{
				ok:   true,
				cond: cond,
				// Excess bounds use the same point-estimate base, so the
				// fold's monotonicity guarantees Lo <= Risk <= Hi.
				excess: math.Max(0, cond-sl.base) * el.weight,
				lo:     math.Max(0, entry.Result.CondCI.Lo-sl.base) * el.weight,
				hi:     math.Max(0, entry.Result.CondCI.Hi-sl.base) * el.weight,
			}
		}
		sl.lifts = append(sl.lifts, el)
	}
	return sl
}

// risk is scoreFromLifts' Risk alone, computed without allocating: the
// key TopK ranks candidates by before it builds any Score.
func (sl *systemLifts) risk(node, nodeRack int) float64 {
	miss := 1.0
	for i := range sl.lifts {
		el := &sl.lifts[i]
		if v := el.scopes[el.scopeFor(node, nodeRack)-1]; v.ok {
			miss = accumulate(miss, v.excess)
		}
	}
	return finish(sl.base, miss)
}

// scoreFromLifts computes one node's score from the precomputed lifts,
// newest event first. Callers must hold e.mu (read or write).
func (e *Engine) scoreFromLifts(s trace.SystemInfo, node int, now time.Time, sl *systemLifts) Score {
	sc := Score{
		System: s.ID,
		Node:   node,
		At:     now,
		Base:   sl.base,
	}
	nodeRack := -1
	if lay := e.layouts[s.ID]; lay != nil {
		nodeRack = lay.Rack(node)
	}
	miss, missLo, missHi := 1.0, 1.0, 1.0
	for i := range sl.lifts {
		el := &sl.lifts[i]
		scope := el.scopeFor(node, nodeRack)
		v := el.scopes[scope-1]
		if !v.ok {
			continue
		}
		sc.Contributions = append(sc.Contributions, Contribution{
			Event:       el.f,
			Scope:       scope,
			Age:         el.age,
			Weight:      el.weight,
			Conditional: v.cond,
			Excess:      v.excess,
		})
		miss = accumulate(miss, v.excess)
		missLo = accumulate(missLo, v.lo)
		missHi = accumulate(missHi, v.hi)
	}
	sc.Risk = finish(sc.Base, miss)
	sc.Lo = finish(sl.baseLo, missLo)
	sc.Hi = finish(sl.baseHi, missHi)
	if sc.Base > 0 {
		sc.Factor = sc.Risk / sc.Base
	} else if sc.Risk > 0 {
		sc.Factor = math.Inf(1)
	}
	return sc
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// TopK returns the k highest-risk nodes at the given instant, descending by
// risk with deterministic (system, node) tie-breaks. Only systems with at
// least one in-window event are scanned: every other node sits exactly at
// its base rate, so they can only pad the tail. Naming systems restricts
// the scan to those IDs (unknown IDs match nothing). Pass k <= 0 for every
// scanned node.
//
// TopK ranks before it materializes. Call a node touched when it is an
// in-window event's own node or sits in that event's rack. An untouched
// node meets every event at system scope, so all untouched nodes of a
// system share one background risk, and under ScoreLess only the k
// lowest-numbered of them can rank. The candidates — touched nodes plus
// those k — are ranked on their scalar risk, the best k are kept, and a
// full Score (contributions, CI bounds) is built only for the winners.
// Results are bit-identical to fully scoring every node and sorting.
func (e *Engine) TopK(k int, now time.Time, systems ...int) []Score {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ids := make([]int, 0, len(e.events))
	for id := range e.events {
		if len(systems) == 0 || slices.Contains(systems, id) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	type scanned struct {
		s  trace.SystemInfo
		sl *systemLifts
	}
	var scan []scanned
	total := 0
	for _, id := range ids {
		evs := e.windowEvents(id, now)
		if len(evs) == 0 {
			continue
		}
		s := e.systems[id]
		scan = append(scan, scanned{s, e.liftsFor(s, now, evs)})
		total += s.Nodes
	}
	if total == 0 {
		return nil
	}
	if k <= 0 || k > total {
		k = total
	}

	top := bestK{k: k}
	for i, sys := range scan {
		touched := e.touched(sys.s, sys.sl)
		for _, t := range touched {
			top.offer(candidate{rank{sys.sl.risk(t.node, t.rack), sys.s.ID, t.node}, i})
		}
		// Untouched nodes in ascending ID order, all at the background risk
		// (node and rack -1 match no event, so every event reaches them at
		// system scope): once one is rejected every later one would be too.
		bg := sys.sl.risk(-1, -1)
		j := 0
		for n, offered := 0, 0; n < sys.s.Nodes && offered < k; n++ {
			for j < len(touched) && touched[j].node < n {
				j++
			}
			if j < len(touched) && touched[j].node == n {
				continue
			}
			if !top.offer(candidate{rank{bg, sys.s.ID, n}, i}) {
				break
			}
			offered++
		}
	}

	winners := top.result()
	out := make([]Score, len(winners))
	for i, w := range winners {
		sys := scan[w.scan]
		out[i] = e.scoreFromLifts(sys.s, w.node, now, sys.sl)
	}
	return out
}

// placedNode is a node with its rack (-1 when unknown or unplaced).
type placedNode struct{ node, rack int }

// touched lists the nodes of s that an in-window event reaches at node or
// rack scope, ascending by node ID, each with its rack. Callers must hold
// e.mu.
func (e *Engine) touched(s trace.SystemInfo, sl *systemLifts) []placedNode {
	out := make([]placedNode, 0, len(sl.lifts))
	var racks []int
	for i := range sl.lifts {
		el := &sl.lifts[i]
		out = append(out, placedNode{el.f.Node, el.rack})
		if el.rack >= 0 {
			racks = append(racks, el.rack)
		}
	}
	if len(racks) > 0 {
		slices.Sort(racks)
		lay := e.layouts[s.ID] // non-nil: only a layout places a node in a rack
		for _, r := range slices.Compact(racks) {
			for _, n := range lay.NodesInRack(r) {
				if n >= 0 && n < s.Nodes {
					out = append(out, placedNode{n, r})
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b placedNode) int { return cmp.Compare(a.node, b.node) })
	// A node appears once per own event and once per rack listing; every
	// copy carries the same rack.
	return slices.CompactFunc(out, func(a, b placedNode) bool { return a.node == b.node })
}

// rank is the part of a Score that ScoreLess orders by.
type rank struct {
	risk         float64
	system, node int
}

// compare is ScoreLess's order as a three-way comparison: descending
// risk, then ascending system and node.
func (a rank) compare(b rank) int {
	if a.risk != b.risk {
		if a.risk > b.risk {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.system, b.system); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}

// candidate is a ranked node plus the index of its system's scan entry.
type candidate struct {
	rank
	scan int
}

// bestK keeps the best k candidates offered so far under ScoreLess's
// order. It buffers up to 2k and then sorts and truncates to k, so an offer
// costs amortized O(log k); once k are held, anything not better than the
// k-th is rejected in O(1).
type bestK struct {
	k    int
	buf  []candidate
	full bool      // buf held k entries at the last trim
	cut  candidate // the k-th best at the last trim, valid when full
}

// offer adds c unless k better candidates are already held, and reports
// whether it was kept.
func (b *bestK) offer(c candidate) bool {
	if b.full && c.compare(b.cut.rank) >= 0 {
		return false
	}
	b.buf = append(b.buf, c)
	if len(b.buf) >= 2*b.k {
		b.trim()
	}
	return true
}

func (b *bestK) trim() {
	slices.SortFunc(b.buf, func(x, y candidate) int { return x.compare(y.rank) })
	if len(b.buf) >= b.k {
		b.buf = b.buf[:b.k]
		b.full = true
		b.cut = b.buf[b.k-1]
	}
}

// result returns the kept candidates, best first.
func (b *bestK) result() []candidate {
	b.trim()
	return b.buf
}

// ScoreLess is TopK's ranking order — descending risk with deterministic
// (system, node) tie-breaks. It is a total order over any one instant's
// scores (each (system, node) appears once), so merging per-shard TopK
// results under it reproduces exactly the order one engine over the whole
// fleet would emit.
func ScoreLess(a, b Score) bool {
	return rank{a.Risk, a.System, a.Node}.compare(rank{b.Risk, b.System, b.Node}) < 0
}
