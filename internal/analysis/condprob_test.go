package analysis

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// day returns a timestamp d days (and h hours) into the test period.
func day(d int, h ...int) time.Time {
	t := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d)
	if len(h) > 0 {
		t = t.Add(time.Duration(h[0]) * time.Hour)
	}
	return t
}

// craft builds a 4-node single-system dataset over 98 days (14 exact
// weeks) with the given failures, plus a two-rack layout (nodes 0,1 in
// rack 0; nodes 2,3 in rack 1).
func craft(failures []trace.Failure) *trace.Dataset {
	lay := layout.New(1)
	_ = lay.SetPlace(0, layout.Place{Rack: 0, Position: 1})
	_ = lay.SetPlace(1, layout.Place{Rack: 0, Position: 2})
	_ = lay.SetPlace(2, layout.Place{Rack: 1, Position: 1})
	_ = lay.SetPlace(3, layout.Place{Rack: 1, Position: 2})
	ds := &trace.Dataset{
		Systems: []trace.SystemInfo{{
			ID: 1, Group: trace.Group1, Nodes: 4, ProcsPerNode: 4,
			Period: trace.Interval{Start: day(0), End: day(98)},
		}},
		Failures: failures,
		Layouts:  map[int]*layout.Layout{1: lay},
	}
	ds.Sort()
	return ds
}

func hwAt(node, d int) trace.Failure {
	return trace.Failure{System: 1, Node: node, Time: day(d, 12), Category: trace.Hardware, HW: trace.CPU}
}

func swAt(node, d int) trace.Failure {
	return trace.Failure{System: 1, Node: node, Time: day(d, 12), Category: trace.Software, SW: trace.OS}
}

func TestBaselineNodeProbTiling(t *testing.T) {
	ds := craft([]trace.Failure{hwAt(0, 10), swAt(0, 12), hwAt(1, 50)})
	a := New(ds)
	base := a.BaselineNodeProb(ds.Systems, trace.Week, nil)
	// 14 weeks x 4 nodes = 56 node-weeks; node0 has failures on days 10
	// and 12 (both week 1), node1 on day 50 (week 7): 2 hits.
	if base.Trials != 56 {
		t.Errorf("trials = %d, want 56", base.Trials)
	}
	if base.Successes != 2 {
		t.Errorf("successes = %d, want 2", base.Successes)
	}
	// Predicate narrows: only HW failures.
	hw := a.BaselineNodeProb(ds.Systems, trace.Week, trace.CategoryPred(trace.Hardware))
	if hw.Successes != 2 {
		// node0 week1 (HW on day 10) and node1 week7.
		t.Errorf("hw successes = %d, want 2", hw.Successes)
	}
	sw := a.BaselineNodeProb(ds.Systems, trace.Week, trace.CategoryPred(trace.Software))
	if sw.Successes != 1 {
		t.Errorf("sw successes = %d, want 1", sw.Successes)
	}
}

func TestCondProbNodeScope(t *testing.T) {
	ds := craft([]trace.Failure{hwAt(0, 10), swAt(0, 12), hwAt(1, 50)})
	a := New(ds)
	r := a.CondProb(ds.Systems, trace.CategoryPred(trace.Hardware), nil, trace.Week, ScopeNode)
	// Anchors: HW at node0 day10 (follow-up SW day12 within week: hit),
	// HW at node1 day50 (no follow-up): 1/2.
	if r.Conditional.Trials != 2 || r.Conditional.Successes != 1 {
		t.Errorf("conditional = %+v, want 1/2", r.Conditional)
	}
	if math.Abs(r.Conditional.P()-0.5) > 1e-12 {
		t.Errorf("P = %g", r.Conditional.P())
	}
	if r.Factor() <= 1 {
		t.Errorf("factor = %g, want > 1", r.Factor())
	}
	if r.Scope != ScopeNode || r.Window != trace.Week {
		t.Error("result metadata wrong")
	}
}

func TestCondProbExcludesAnchorItself(t *testing.T) {
	// A single failure must not count itself as its own follow-up.
	ds := craft([]trace.Failure{hwAt(0, 10)})
	a := New(ds)
	r := a.CondProb(ds.Systems, nil, nil, trace.Week, ScopeNode)
	if r.Conditional.Trials != 1 || r.Conditional.Successes != 0 {
		t.Errorf("conditional = %+v, want 0/1", r.Conditional)
	}
}

func TestCondProbSameInstantFollowUpExcluded(t *testing.T) {
	// Two failures at the same instant: the window opens strictly after
	// the anchor, so neither sees the other at node scope.
	f1 := hwAt(0, 10)
	f2 := swAt(0, 10)
	ds := craft([]trace.Failure{f1, f2})
	a := New(ds)
	r := a.CondProb(ds.Systems, nil, nil, trace.Week, ScopeNode)
	if r.Conditional.Successes != 0 {
		t.Errorf("same-instant follow-ups should be excluded: %+v", r.Conditional)
	}
}

func TestCondProbWindowClipping(t *testing.T) {
	// An anchor within the final week has no complete window and is
	// dropped from the trials.
	ds := craft([]trace.Failure{hwAt(0, 95)})
	a := New(ds)
	r := a.CondProb(ds.Systems, nil, nil, trace.Week, ScopeNode)
	if r.Conditional.Trials != 0 {
		t.Errorf("trials = %d, want 0 (window clipped)", r.Conditional.Trials)
	}
}

func TestCondProbRackScope(t *testing.T) {
	ds := craft([]trace.Failure{hwAt(0, 10), hwAt(1, 11), swAt(0, 12), hwAt(1, 50)})
	a := New(ds)
	r := a.CondProb(ds.Systems, nil, nil, trace.Week, ScopeRack)
	// Each anchor has exactly one rack-mate (nodes 0 and 1 share rack 0).
	// anchor node0@10 -> node1@11 hit; anchor node1@11 -> node0@12 hit;
	// anchor node0@12 -> node1 in (12,19]? no; anchor node1@50 -> no.
	if r.Conditional.Trials != 4 {
		t.Errorf("trials = %d, want 4", r.Conditional.Trials)
	}
	if r.Conditional.Successes != 2 {
		t.Errorf("successes = %d, want 2", r.Conditional.Successes)
	}
}

func TestCondProbRackScopeSkipsSystemsWithoutLayout(t *testing.T) {
	ds := craft([]trace.Failure{hwAt(0, 10), hwAt(1, 11)})
	delete(ds.Layouts, 1)
	a := New(ds)
	r := a.CondProb(ds.Systems, nil, nil, trace.Week, ScopeRack)
	if r.Conditional.Trials != 0 {
		t.Errorf("no layout should mean no rack trials, got %d", r.Conditional.Trials)
	}
}

func TestCondProbSystemScope(t *testing.T) {
	ds := craft([]trace.Failure{hwAt(0, 10), hwAt(2, 12), hwAt(3, 13), hwAt(1, 80)})
	a := New(ds)
	r := a.CondProb(ds.Systems, trace.HWPred(trace.CPU), nil, trace.Week, ScopeSystem)
	// Anchors: all 4 failures (all CPU), each with 3 other nodes.
	// node0@10: others failing within (10,17]: nodes 2 and 3 -> 2.
	// node2@12: node 3 (@13) -> 1.  node3@13: none -> 0.  node1@80: 0.
	if r.Conditional.Trials != 12 {
		t.Errorf("trials = %d, want 12", r.Conditional.Trials)
	}
	if r.Conditional.Successes != 3 {
		t.Errorf("successes = %d, want 3", r.Conditional.Successes)
	}
}

func TestFollowUpByTypeLabelsAndOrder(t *testing.T) {
	ds := craft([]trace.Failure{hwAt(0, 10), swAt(0, 12)})
	a := New(ds)
	fus := a.FollowUpByType(ds.Systems, trace.Week, ScopeNode)
	if len(fus) != 8 {
		t.Fatalf("expected 8 bars (6 categories + MEM + CPU), got %d", len(fus))
	}
	if fus[0].Label != "ENV" || fus[5].Label != "SW" {
		t.Errorf("figure order wrong: %s ... %s", fus[0].Label, fus[5].Label)
	}
	if fus[6].Label != "HW/Memory" || fus[7].Label != "HW/CPU" {
		t.Errorf("hardware bars wrong: %s, %s", fus[6].Label, fus[7].Label)
	}
}

func TestPairwiseByType(t *testing.T) {
	// HW at day 10 followed by HW at day 12: same-type hit.
	ds := craft([]trace.Failure{hwAt(0, 10), hwAt(0, 12), swAt(1, 50)})
	a := New(ds)
	prs := a.PairwiseByType(ds.Systems, trace.Week, ScopeNode)
	var hw PairwiseResult
	for _, pr := range prs {
		if pr.Label == "HW" {
			hw = pr
		}
	}
	// Same-type anchors: HW@10 (hit, HW@12 within week), HW@12 (no).
	if hw.AfterSame.Conditional.Trials != 2 || hw.AfterSame.Conditional.Successes != 1 {
		t.Errorf("HW afterSame = %+v", hw.AfterSame.Conditional)
	}
	// After-any anchors: all three failures; HW@10 -> HW@12 hit; HW@12 ->
	// none; SW@50 -> none.
	if hw.AfterAny.Conditional.Trials != 3 || hw.AfterAny.Conditional.Successes != 1 {
		t.Errorf("HW afterAny = %+v", hw.AfterAny.Conditional)
	}
}

func TestPairMatrixShape(t *testing.T) {
	ds := craft([]trace.Failure{hwAt(0, 10), swAt(0, 12)})
	a := New(ds)
	m := a.PairMatrix(ds.Systems, trace.Week)
	if len(m) != 6 || len(m[0]) != 6 {
		t.Fatalf("matrix shape %dx%d", len(m), len(m[0]))
	}
	// HW -> SW cell: anchor HW@10, SW@12 follows: 1/1.
	hwIdx, swIdx := 1, 4 // positions of Hardware and Software in trace.Categories
	cell := m[hwIdx][swIdx]
	if cell.Conditional.Trials != 1 || cell.Conditional.Successes != 1 {
		t.Errorf("HW->SW = %+v", cell.Conditional)
	}
}

func TestCondResultSignificance(t *testing.T) {
	// Large crafted separation should be significant.
	var fs []trace.Failure
	for d := 1; d < 90; d += 2 {
		fs = append(fs, hwAt(0, d))
	}
	ds := craft(fs)
	a := New(ds)
	r := a.CondProb(ds.Systems, nil, nil, trace.Week, ScopeNode)
	if !r.Significant(0.01) {
		t.Errorf("dense follow-ups should be significant; p=%g", r.Test.P)
	}
	if !r.CondCI.Contains(r.Conditional.P()) {
		t.Error("CI should contain the point estimate")
	}
}

// TestNonPositiveWindow: a window of zero or negative length holds no
// follow-up. Every path and scope answers the same zero-trial result
// without panicking, the Ctx variants report an error, and the baselines
// count no trials.
func TestNonPositiveWindow(t *testing.T) {
	ds := craft([]trace.Failure{hwAt(0, 10), swAt(0, 11), hwAt(1, 20), swAt(2, 20), swAt(3, 40)})
	a := New(ds)
	for _, w := range []time.Duration{0, -trace.Day} {
		for _, scope := range []Scope{ScopeNode, ScopeRack, ScopeSystem} {
			idx := a.CondProb(ds.Systems, nil, nil, w, scope)
			naive := a.CondProbNaive(ds.Systems, nil, nil, w, scope)
			for name, r := range map[string]CondResult{"indexed": idx, "naive": naive} {
				if r.Conditional.Trials != 0 || r.Baseline.Trials != 0 || r.Window != w || r.Scope != scope {
					t.Errorf("w=%v %s %s: %+v, want the zero-trial result", w, scope, name, r)
				}
			}
			if idx.Conditional != naive.Conditional || idx.Baseline != naive.Baseline {
				t.Errorf("w=%v %s: indexed %+v/%+v != naive %+v/%+v", w, scope,
					idx.Conditional, idx.Baseline, naive.Conditional, naive.Baseline)
			}
			ctx := context.Background()
			if _, err := a.CondProbCtx(ctx, ds.Systems, nil, nil, w, scope); err == nil {
				t.Errorf("w=%v %s: CondProbCtx accepted the window", w, scope)
			}
			if _, err := a.CondProbNaiveCtx(ctx, ds.Systems, nil, nil, w, scope); err == nil {
				t.Errorf("w=%v %s: CondProbNaiveCtx accepted the window", w, scope)
			}
		}
		if p := a.BaselineNodeProb(ds.Systems, w, nil); p != (stats.Proportion{}) {
			t.Errorf("w=%v: BaselineNodeProb = %+v", w, p)
		}
		if p := a.BaselineNodeProbNaive(ds.Systems, w, nil); p != (stats.Proportion{}) {
			t.Errorf("w=%v: BaselineNodeProbNaive = %+v", w, p)
		}
	}
}
