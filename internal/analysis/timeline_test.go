package analysis

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/simulate"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// randomTimeline builds a sorted dataset whose catalog holds systems 1..3
// with 16 nodes each, while its failures also name system 4 (absent from
// the catalog) and nodes -2..17 (partly outside [0, 16)). Many events share
// a timestamp, so ties in dataset order are exercised too.
func randomTimeline(rng *rand.Rand) *trace.Dataset {
	ds := &trace.Dataset{}
	for id := 1; id <= 3; id++ {
		ds.Systems = append(ds.Systems, trace.SystemInfo{
			ID: id, Group: trace.Group1, Nodes: 16, ProcsPerNode: 4,
			Period: trace.Interval{Start: day(0), End: day(60)},
		})
	}
	kinds := []trace.Failure{
		{Category: trace.Hardware, HW: trace.Memory},
		{Category: trace.Hardware, HW: trace.CPU},
		{Category: trace.Software, SW: trace.OS},
		{Category: trace.Network},
		{Category: trace.Environment, Env: trace.UPS},
	}
	for i, n := 0, rng.Intn(300); i < n; i++ {
		f := kinds[rng.Intn(len(kinds))]
		f.System = 1 + rng.Intn(4)
		f.Node = rng.Intn(20) - 2
		f.Time = day(rng.Intn(60), rng.Intn(3))
		ds.Failures = append(ds.Failures, f)
	}
	ds.Sort()
	return ds
}

// scanSystem and scanNode are the plain scans the accessors must match.
func scanSystem(ds *trace.Dataset, id int) []trace.Failure {
	var out []trace.Failure
	for _, f := range ds.Failures {
		if f.System == id {
			out = append(out, f)
		}
	}
	return out
}

func scanNode(ds *trace.Dataset, id, node int) []trace.Failure {
	var out []trace.Failure
	for _, f := range ds.Failures {
		if f.System == id && f.Node == node {
			out = append(out, f)
		}
	}
	return out
}

// sameFailures compares two failure lists element by element, treating nil
// and empty as equal.
func sameFailures(a, b []trace.Failure) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestTimelineAccessorsMatchScan checks SystemFailures, NodeFailures and
// the node window probe against plain scans of DS on seeded random
// datasets, for index-backed and hand-assembled analyzers alike: known and
// unknown systems, nodes inside and outside [0, Nodes), and random windows
// including empty and inverted ones.
func TestTimelineAccessorsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 40; trial++ {
		ds := randomTimeline(rng)
		for _, a := range []*Analyzer{New(ds), {DS: ds}} {
			label := "indexed"
			if a.didx == nil {
				label = "hand-assembled"
			}
			for id := 0; id <= 5; id++ {
				sys := scanSystem(ds, id)
				if got := a.SystemFailures(id); !sameFailures(got, sys) {
					t.Fatalf("trial %d %s: SystemFailures(%d) = %d events, scan %d", trial, label, id, len(got), len(sys))
				}
				if a.didx != nil {
					iv := trace.Interval{Start: day(rng.Intn(62)), End: day(rng.Intn(62))}
					pred := []trace.Pred{nil, trace.CategoryPred(trace.Hardware), trace.HWPred(trace.Memory)}[rng.Intn(3)]
					n := 0
					for _, f := range sys {
						if iv.Contains(f.Time) && pred.Match(f) {
							n++
						}
					}
					if got := a.didx.CountInWindow(id, pred, iv); got != n {
						t.Fatalf("trial %d: CountInWindow(%d, %v) = %d, scan %d", trial, id, iv, got, n)
					}
				}
				for node := -3; node <= 18; node++ {
					want := scanNode(ds, id, node)
					if got := a.NodeFailures(id, node); !sameFailures(got, want) {
						t.Fatalf("trial %d %s: NodeFailures(%d, %d) = %d events, scan %d", trial, label, id, node, len(got), len(want))
					}
					iv := trace.Interval{Start: day(rng.Intn(62), rng.Intn(3)), End: day(rng.Intn(62), rng.Intn(3))}
					hit := false
					for _, f := range want {
						hit = hit || iv.Contains(f.Time)
					}
					if got := a.nodeAny(id, node, iv); got != hit {
						t.Fatalf("trial %d %s: nodeAny(%d, %d, %v) = %v, scan %v", trial, label, id, node, iv, got, hit)
					}
				}
			}
		}
	}
}

// TestTimelineWindowEnds pins the node window probe's right-open interval
// on a hand-built timeline.
func TestTimelineWindowEnds(t *testing.T) {
	a := New(craft([]trace.Failure{hwAt(0, 0), swAt(0, 10), swAt(1, 5), hwAt(2, 20)}))
	if fs := a.NodeFailures(1, 0); len(fs) != 2 || !fs[0].Time.Before(fs[1].Time) {
		t.Fatalf("node 0 failures = %+v, want two in time order", fs)
	}
	if n := len(a.SystemFailures(1)); n != 4 {
		t.Fatalf("system failures = %d, want 4", n)
	}
	cases := []struct {
		node       int
		start, end time.Time
		want       bool
	}{
		{0, day(0), day(6), true},
		{1, day(0), day(6), true},
		{2, day(0), day(6), false},
		{1, day(0), day(5, 12), false}, // end is exclusive
		{1, day(5, 12), day(5, 13), true},
		{0, day(1), day(10, 12), false},
		{0, day(6), day(0), false}, // inverted window
		{9, day(0), day(99), false},
	}
	for _, c := range cases {
		if got := a.nodeAny(1, c.node, trace.Interval{Start: c.start, End: c.end}); got != c.want {
			t.Errorf("nodeAny(node %d, [%v, %v)) = %v, want %v", c.node, c.start, c.end, got, c.want)
		}
	}
}

// TestHandAssembledAnalyzer pins the DS-scan fallbacks: an Analyzer with
// only DS set answers CondProb, BaselineNodeProb and the timeline accessors
// exactly like one built by New.
func TestHandAssembledAnalyzer(t *testing.T) {
	ds, err := simulate.Generate(simulate.Options{Seed: 5, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	want, hand := New(ds), &Analyzer{DS: ds}
	hw := trace.CategoryPred(trace.Hardware)
	for _, scope := range []Scope{ScopeNode, ScopeRack, ScopeSystem} {
		for _, w := range []time.Duration{trace.Day, trace.Week} {
			label := scope.String() + "/" + trace.WindowName(w)
			requireCondEqual(t, label, hand.CondProb(ds.Systems, hw, nil, w, scope), want.CondProb(ds.Systems, hw, nil, w, scope))
		}
	}
	if g, w := hand.BaselineNodeProb(ds.Systems, trace.Week, hw), want.BaselineNodeProb(ds.Systems, trace.Week, hw); g != w {
		t.Errorf("BaselineNodeProb = %+v, want %+v", g, w)
	}
	for _, s := range ds.Systems {
		if !sameFailures(hand.SystemFailures(s.ID), want.SystemFailures(s.ID)) {
			t.Errorf("system %d: SystemFailures diverged", s.ID)
		}
		if !sameFailures(hand.NodeFailures(s.ID, 0), want.NodeFailures(s.ID, 0)) {
			t.Errorf("system %d: NodeFailures(0) diverged", s.ID)
		}
	}
}
