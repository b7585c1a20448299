package risk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// topKNaive is the frozen all-nodes reference TopK is pinned to: it fully
// scores every node of every scanned system, sorts under ScoreLess and
// truncates. Keep it as it is; the rank-then-materialize TopK must match
// it bit for bit.
func topKNaive(e *Engine, k int, now time.Time, systems ...int) []Score {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ids := make([]int, 0, len(e.events))
	for id := range e.events {
		if len(systems) == 0 || slices.Contains(systems, id) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var out []Score
	for _, id := range ids {
		evs := e.windowEvents(id, now)
		if len(evs) == 0 {
			continue
		}
		s := e.systems[id]
		sl := e.liftsFor(s, now, evs)
		for n := 0; n < s.Nodes; n++ {
			out = append(out, e.scoreFromLifts(s, n, now, sl))
		}
	}
	sort.Slice(out, func(i, j int) bool { return ScoreLess(out[i], out[j]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// sameScores fails unless got and want are the same rows with
// bit-identical numbers and equal contributions.
func sameScores(t *testing.T, label string, got, want []Score) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	bits := func(s Score) [5]uint64 {
		return [5]uint64{
			math.Float64bits(s.Risk), math.Float64bits(s.Lo), math.Float64bits(s.Hi),
			math.Float64bits(s.Base), math.Float64bits(s.Factor),
		}
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.System != w.System || g.Node != w.Node || !g.At.Equal(w.At) || bits(g) != bits(w) {
			t.Fatalf("%s: row %d = %+v, want %+v", label, i, g, w)
		}
		if !slices.Equal(g.Contributions, w.Contributions) {
			t.Fatalf("%s: row %d contributions = %+v, want %+v", label, i, g.Contributions, w.Contributions)
		}
	}
}

// fleetEngine builds an engine over three systems that exercise every
// candidate rule: system 1 has a two-rack layout, system 2 has none, and
// system 3's layout leaves nodes 20-22 unplaced and places a node 40 the
// system does not have. The lift table loses the network anchor's node-
// and system-scope entries and the environment anchor's rack- and
// system-scope entries, so touched nodes can sit exactly at the
// background risk and only the node-ID tie-break orders them.
func fleetEngine(t testing.TB) *Engine {
	t.Helper()
	period := trace.Interval{Start: day(0), End: day(98)}
	ds := &trace.Dataset{
		Systems: []trace.SystemInfo{
			{ID: 1, Group: trace.Group1, Nodes: 4, ProcsPerNode: 4, Period: period},
			{ID: 2, Group: trace.Group2, Nodes: 12, ProcsPerNode: 4, Period: period},
			{ID: 3, Group: trace.Group1, Nodes: 23, ProcsPerNode: 4, Period: period},
		},
		Layouts: map[int]*layout.Layout{1: layout.New(1), 3: layout.Regular(3, 20, 2)},
	}
	for n := 0; n < 4; n++ {
		_ = ds.Layouts[1].SetPlace(n, layout.Place{Rack: n / 2, Position: n%2 + 1})
	}
	_ = ds.Layouts[3].SetPlace(40, layout.Place{Rack: 1, Position: 1})
	rng := rand.New(rand.NewSource(7))
	for _, s := range ds.Systems {
		for d := 2; d < 95; d += 3 {
			n := rng.Intn(s.Nodes)
			ds.Failures = append(ds.Failures,
				trace.Failure{System: s.ID, Node: n, Time: day(d, 6), Category: trace.Hardware, HW: trace.CPU},
				trace.Failure{System: s.ID, Node: n, Time: day(d+1, 6), Category: trace.Software, SW: trace.OS},
			)
			if d%9 == 2 {
				ds.Failures = append(ds.Failures,
					trace.Failure{System: s.ID, Node: rng.Intn(s.Nodes), Time: day(d, 18), Category: trace.Network},
					trace.Failure{System: s.ID, Node: rng.Intn(s.Nodes), Time: day(d, 20), Category: trace.Environment, Env: trace.UPS},
				)
			}
		}
	}
	ds.Sort()
	table, err := analysis.New(ds).BuildLiftTable(ds.Systems, trace.Week)
	if err != nil {
		t.Fatal(err)
	}
	for _, scope := range []analysis.Scope{analysis.ScopeNode, analysis.ScopeSystem} {
		delete(table.Entries, analysis.LiftKey{Anchor: trace.Network, Scope: scope})
	}
	for _, scope := range []analysis.Scope{analysis.ScopeRack, analysis.ScopeSystem} {
		delete(table.Entries, analysis.LiftKey{Anchor: trace.Environment, Scope: scope})
	}
	e, err := New(Config{Table: table, Systems: ds.Systems, Layouts: ds.Layouts})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkAllK compares TopK with the reference at one instant and filter for
// k = 1, 5, nodes-1, nodes, nodes+1 and 0, where nodes is the number of
// nodes the filter scans.
func checkAllK(t *testing.T, label string, e *Engine, at time.Time, systems ...int) {
	t.Helper()
	n := len(topKNaive(e, 0, at, systems...))
	for _, k := range []int{1, 5, n - 1, n, n + 1, 0} {
		l := fmt.Sprintf("%s at %s systems %v k=%d", label, at.Format(time.RFC3339), systems, k)
		sameScores(t, l, e.TopK(k, at, systems...), topKNaive(e, k, at, systems...))
	}
}

// TestTopKMatchesNaive pins the rank-then-materialize TopK to the all-nodes
// reference over every candidate rule: systems with and without a layout,
// unplaced nodes, events exactly at now-W (out) and now (in), events after
// now, system filters, and ties with the background broken by node ID.
func TestTopKMatchesNaive(t *testing.T) {
	e := fleetEngine(t)
	now := day(100)
	events := []trace.Failure{
		{System: 1, Node: 2, Time: now.Add(-2 * time.Hour), Category: trace.Hardware, HW: trace.CPU},
		{System: 1, Node: 3, Time: now.Add(-30 * time.Hour), Category: trace.Software, SW: trace.OS},
		{System: 2, Node: 7, Time: now.Add(-3 * 24 * time.Hour), Category: trace.Hardware, HW: trace.Memory},
		{System: 2, Node: 9, Time: now.Add(-time.Hour), Category: trace.Network},
		{System: 3, Node: 21, Time: now.Add(-5 * time.Hour), Category: trace.Software, SW: trace.OS},
		{System: 3, Node: 17, Time: now.Add(-30 * time.Minute), Category: trace.Network},
		{System: 3, Node: 6, Time: now.Add(-26 * time.Hour), Category: trace.Environment, Env: trace.UPS},
		{System: 3, Node: 12, Time: now.Add(time.Hour), Category: trace.Hardware, HW: trace.CPU},
	}
	for _, f := range events {
		if err := e.Observe(f); err != nil {
			t.Fatal(err)
		}
	}

	// Node 17's own network event has no node-scope lift and its rack has
	// no other event, so it sits exactly at system 3's background risk;
	// lower-numbered untouched nodes must outrank it.
	bg, err := e.Score(3, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	tied, err := e.Score(3, 17, now)
	if err != nil {
		t.Fatal(err)
	}
	if tied.Risk != bg.Risk {
		t.Fatalf("node 17 risk %v, want the background %v", tied.Risk, bg.Risk)
	}

	// Every event time t is queried at t (the event is in) and at t+W
	// (exactly at now-W, so it is out), plus now itself.
	instants := []time.Time{now}
	for _, f := range events {
		instants = append(instants, f.Time, f.Time.Add(e.Window()))
	}
	filters := [][]int{nil, {3}, {2}, {1, 3}, {99}}
	for _, at := range instants {
		for _, systems := range filters {
			checkAllK(t, "fixed", e, at, systems...)
		}
	}
	if got := e.TopK(5, now, 99); len(got) != 0 {
		t.Fatalf("unknown system returned %d scores", len(got))
	}
}

// TestTopKMatchesNaiveRandomSchedules feeds seeded random schedules (late
// arrivals, events past the query instant, every category) to testEngine
// and fleetEngine and compares every k at random instants.
func TestTopKMatchesNaiveRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	now := day(100)
	for trial := 0; trial < 12; trial++ {
		e := testEngine(t)
		if trial%2 == 1 {
			e = fleetEngine(t)
		}
		systems := e.Systems()
		for i, n := 0, 1+rng.Intn(16); i < n; i++ {
			s := systems[rng.Intn(len(systems))]
			f := trace.Failure{
				System:   s.ID,
				Node:     rng.Intn(s.Nodes),
				Time:     now.Add(time.Duration(rng.Int63n(int64(10*24*time.Hour))) - 8*24*time.Hour),
				Category: trace.Categories[rng.Intn(len(trace.Categories))],
			}
			if f.Category == trace.Hardware {
				f.HW = []trace.HWComponent{trace.CPU, trace.Memory}[rng.Intn(2)]
			}
			if err := e.Observe(f); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 4; q++ {
			at := now.Add(time.Duration(rng.Int63n(int64(4*24*time.Hour))) - 3*24*time.Hour)
			n := len(topKNaive(e, 0, at))
			for k := 0; k <= n+1; k++ {
				label := fmt.Sprintf("trial %d at %s k=%d", trial, at.Format(time.RFC3339), k)
				sameScores(t, label, e.TopK(k, at), topKNaive(e, k, at))
			}
		}
	}
}
