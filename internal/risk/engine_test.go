package risk

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// day returns a timestamp d days and h hours into the test period.
func day(d int, h ...int) time.Time {
	t := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d)
	if len(h) > 0 {
		t = t.Add(time.Duration(h[0]) * time.Hour)
	}
	return t
}

// historyDS builds a 4-node single-system dataset over 98 days with enough
// correlated history for a non-degenerate lift table: hardware failures are
// regularly followed by a same-node failure within a week.
func historyDS() *trace.Dataset {
	lay := layout.New(1)
	_ = lay.SetPlace(0, layout.Place{Rack: 0, Position: 1})
	_ = lay.SetPlace(1, layout.Place{Rack: 0, Position: 2})
	_ = lay.SetPlace(2, layout.Place{Rack: 1, Position: 1})
	_ = lay.SetPlace(3, layout.Place{Rack: 1, Position: 2})
	var fails []trace.Failure
	hw := func(node, d int) trace.Failure {
		return trace.Failure{System: 1, Node: node, Time: day(d, 12), Category: trace.Hardware, HW: trace.CPU}
	}
	sw := func(node, d int) trace.Failure {
		return trace.Failure{System: 1, Node: node, Time: day(d, 12), Category: trace.Software, SW: trace.OS}
	}
	// Clustered pairs: HW anchor, follow-up two days later, across the
	// period; plus isolated software failures for baseline mass.
	for d := 5; d < 85; d += 10 {
		fails = append(fails, hw(0, d), sw(0, d+2))
	}
	fails = append(fails, hw(1, 30), sw(2, 55), sw(3, 70))
	ds := &trace.Dataset{
		Systems: []trace.SystemInfo{{
			ID: 1, Group: trace.Group1, Nodes: 4, ProcsPerNode: 4,
			Period: trace.Interval{Start: day(0), End: day(98)},
		}},
		Failures: fails,
		Layouts:  map[int]*layout.Layout{1: lay},
	}
	ds.Sort()
	return ds
}

func testEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := FromDataset(historyDS(), trace.Week)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewRejectsBadConfig(t *testing.T) {
	ds := historyDS()
	table, err := analysis.New(ds).BuildLiftTable(ds.Systems, trace.Week)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Systems: ds.Systems}); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := New(Config{Table: table}); err == nil {
		t.Error("no systems should fail")
	}
	if _, err := New(Config{Table: &analysis.LiftTable{}, Systems: ds.Systems}); err == nil {
		t.Error("zero-window table should fail")
	}
}

func TestObserveValidates(t *testing.T) {
	e := testEngine(t)
	now := day(100)
	for _, f := range []trace.Failure{
		{System: 99, Node: 0, Time: now, Category: trace.Hardware},
		{System: 1, Node: 99, Time: now, Category: trace.Hardware},
		{System: 1, Node: -1, Time: now, Category: trace.Hardware},
		{System: 1, Node: 0, Time: now, Category: trace.Category(42)},
		{System: 1, Node: 0, Category: trace.Hardware}, // zero time
	} {
		if err := e.Observe(f); err == nil {
			t.Errorf("Observe(%+v) should fail", f)
		}
	}
	if got := e.Snapshot().Observed; got != 0 {
		t.Errorf("rejected events counted: observed = %d", got)
	}
}

// TestScoreElevatesAndDecays is the core serving contract: risk jumps to
// the conditional right after an event and relaxes linearly back to base
// as the window expires.
func TestScoreElevatesAndDecays(t *testing.T) {
	e := testEngine(t)
	now := day(100)
	before, err := e.Score(1, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Contributions) != 0 || before.Risk != before.Base {
		t.Fatalf("quiet node not at base rate: %+v", before)
	}

	if err := e.Observe(trace.Failure{System: 1, Node: 0, Time: now, Category: trace.Hardware, HW: trace.CPU}); err != nil {
		t.Fatal(err)
	}
	fresh, err := e.Score(1, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Risk <= fresh.Base {
		t.Fatalf("risk not elevated after event: %+v", fresh)
	}
	if fresh.Factor <= 1 {
		t.Errorf("factor = %v, want > 1", fresh.Factor)
	}
	if !(fresh.Lo <= fresh.Risk && fresh.Risk <= fresh.Hi) {
		t.Errorf("CI does not bracket risk: [%v, %v] vs %v", fresh.Lo, fresh.Hi, fresh.Risk)
	}
	if len(fresh.Contributions) != 1 || fresh.Contributions[0].Scope != analysis.ScopeNode {
		t.Fatalf("contributions = %+v", fresh.Contributions)
	}

	mid, err := e.Score(1, 0, now.Add(trace.Week/2))
	if err != nil {
		t.Fatal(err)
	}
	if !(mid.Risk < fresh.Risk && mid.Risk > mid.Base) {
		t.Errorf("half-window risk %v not between fresh %v and base %v", mid.Risk, fresh.Risk, mid.Base)
	}

	after, err := e.Score(1, 0, now.Add(trace.Week+time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if after.Risk != after.Base || len(after.Contributions) != 0 {
		t.Errorf("risk did not decay to base after window: %+v", after)
	}
}

func TestScoreScopePropagation(t *testing.T) {
	e := testEngine(t)
	now := day(100)
	// Event on node 0: node 1 shares rack 0, nodes 2 and 3 only the system.
	if err := e.Observe(trace.Failure{System: 1, Node: 0, Time: now, Category: trace.Hardware, HW: trace.CPU}); err != nil {
		t.Fatal(err)
	}
	scopeOf := func(node int) analysis.Scope {
		sc, err := e.Score(1, node, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.Contributions) != 1 {
			t.Fatalf("node %d: contributions = %+v", node, sc.Contributions)
		}
		return sc.Contributions[0].Scope
	}
	if got := scopeOf(1); got != analysis.ScopeRack {
		t.Errorf("rack-mate scope = %v, want rack", got)
	}
	if got := scopeOf(2); got != analysis.ScopeSystem {
		t.Errorf("other-rack scope = %v, want system", got)
	}
}

func TestScoreFutureEventsIgnored(t *testing.T) {
	e := testEngine(t)
	now := day(100)
	if err := e.Observe(trace.Failure{System: 1, Node: 0, Time: now.Add(time.Hour), Category: trace.Hardware}); err != nil {
		t.Fatal(err)
	}
	sc, err := e.Score(1, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Risk != sc.Base {
		t.Errorf("event from the future leaked into the score: %+v", sc)
	}
}

func TestTopKOrderingAndLimit(t *testing.T) {
	e := testEngine(t)
	now := day(100)
	if err := e.Observe(trace.Failure{System: 1, Node: 2, Time: now, Category: trace.Hardware, HW: trace.CPU}); err != nil {
		t.Fatal(err)
	}
	all := e.TopK(0, now)
	if len(all) != 4 {
		t.Fatalf("TopK(0) returned %d scores, want 4", len(all))
	}
	if all[0].Node != 2 {
		t.Errorf("highest risk node = %d, want 2 (the failed node)", all[0].Node)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Risk > all[i-1].Risk {
			t.Errorf("TopK not descending at %d", i)
		}
	}
	if top := e.TopK(2, now); len(top) != 2 {
		t.Errorf("TopK(2) returned %d scores", len(top))
	}
	// After the window passes with no events in range, nothing is scanned.
	if late := e.TopK(0, now.Add(2*trace.Week)); len(late) != 0 {
		t.Errorf("TopK after expiry returned %d scores", len(late))
	}
}

func TestDeterministicReplay(t *testing.T) {
	feed := []trace.Failure{
		{System: 1, Node: 0, Time: day(100, 3), Category: trace.Hardware, HW: trace.CPU},
		{System: 1, Node: 1, Time: day(100, 1), Category: trace.Software, SW: trace.OS},
		{System: 1, Node: 2, Time: day(100, 3), Category: trace.Network},
		{System: 1, Node: 3, Time: day(101), Category: trace.Environment, Env: trace.UPS},
	}
	run := func(order []int) ([]Score, Snapshot) {
		e := testEngine(t)
		for _, i := range order {
			if err := e.Observe(feed[i]); err != nil {
				t.Fatal(err)
			}
		}
		return e.TopK(0, day(101, 12)), e.Snapshot()
	}
	scoresA, snapA := run([]int{0, 1, 2, 3})
	scoresB, snapB := run([]int{3, 2, 1, 0}) // same events, reversed arrival
	if len(scoresA) != len(scoresB) {
		t.Fatalf("score counts differ: %d vs %d", len(scoresA), len(scoresB))
	}
	for i := range scoresA {
		if scoresA[i].Risk != scoresB[i].Risk || scoresA[i].Node != scoresB[i].Node {
			t.Errorf("scores[%d] differ across arrival orders: %+v vs %+v", i, scoresA[i], scoresB[i])
		}
	}
	if len(snapA.Active) != len(snapB.Active) {
		t.Fatalf("snapshots differ: %d vs %d events", len(snapA.Active), len(snapB.Active))
	}
	for i := range snapA.Active {
		if snapA.Active[i] != snapB.Active[i] {
			t.Errorf("snapshot event %d differs: %+v vs %+v", i, snapA.Active[i], snapB.Active[i])
		}
	}
}

func TestSnapshotCountsAndLag(t *testing.T) {
	e := testEngine(t)
	now := day(100)
	for i := 0; i < 3; i++ {
		if err := e.Observe(trace.Failure{System: 1, Node: i, Time: now.Add(time.Duration(i) * time.Hour), Category: trace.Software, SW: trace.OS}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	if snap.Observed != 3 || len(snap.Active) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.LastEvent != now.Add(2*time.Hour) {
		t.Errorf("last event = %v", snap.LastEvent)
	}
	if lag := e.Lag(now.Add(3 * time.Hour)); lag != time.Hour {
		t.Errorf("lag = %v, want 1h", lag)
	}
}

func TestRetentionBound(t *testing.T) {
	ds := historyDS()
	table, err := analysis.New(ds).BuildLiftTable(ds.Systems, trace.Week)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Table: table, Systems: ds.Systems, Layouts: ds.Layouts, MaxEventsPerSystem: 2})
	if err != nil {
		t.Fatal(err)
	}
	now := day(100)
	for i := 0; i < 5; i++ {
		if err := e.Observe(trace.Failure{System: 1, Node: 0, Time: now.Add(time.Duration(i) * time.Minute), Category: trace.Software, SW: trace.OS}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	if len(snap.Active) != 2 {
		t.Errorf("retained %d events, want 2", len(snap.Active))
	}
	if snap.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", snap.Dropped)
	}
}

// combine folds a whole list of excesses the way scoring folds events.
func combine(base float64, excesses []float64) float64 {
	miss := 1.0
	for _, x := range excesses {
		miss = accumulate(miss, x)
	}
	return finish(base, miss)
}

func TestCombineBounds(t *testing.T) {
	if got := combine(0.5, nil); got != 0.5 {
		t.Errorf("combine(base, nil) = %v", got)
	}
	if got := combine(math.NaN(), []float64{0.3}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("combine(NaN, 0.3) = %v", got)
	}
	if got := combine(0.2, []float64{5}); got != 1 {
		t.Errorf("combine with excess > 1 = %v, want 1", got)
	}
	if got := combine(0.2, []float64{-1}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("negative excess changed risk: %v", got)
	}
}

// TestConcurrentObserveScoreSnapshot exercises the engine under the race
// detector: writers feed events while readers score and snapshot.
func TestConcurrentObserveScoreSnapshot(t *testing.T) {
	e := testEngine(t)
	now := day(100)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f := trace.Failure{
					System:   1,
					Node:     (w + i) % 4,
					Time:     now.Add(time.Duration(i) * time.Minute),
					Category: trace.Hardware,
					HW:       trace.CPU,
				}
				if err := e.Observe(f); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := e.Score(1, i%4, now.Add(time.Duration(i)*time.Minute)); err != nil {
					t.Error(err)
					return
				}
				_ = e.Snapshot()
				_ = e.TopK(2, now)
			}
		}()
	}
	wg.Wait()
	if got := e.Snapshot().Observed; got != 800 {
		t.Errorf("observed = %d, want 800", got)
	}
}

func BenchmarkObserve(b *testing.B) {
	e := testEngine(b)
	now := day(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := trace.Failure{System: 1, Node: i % 4, Time: now.Add(time.Duration(i) * time.Second), Category: trace.Hardware, HW: trace.CPU}
		if err := e.Observe(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScore(b *testing.B) {
	e := testEngine(b)
	now := day(100)
	for i := 0; i < 32; i++ {
		f := trace.Failure{System: 1, Node: i % 4, Time: now.Add(time.Duration(i) * time.Minute), Category: trace.Hardware, HW: trace.CPU}
		if err := e.Observe(f); err != nil {
			b.Fatal(err)
		}
	}
	at := now.Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Score(1, i%4, at); err != nil {
			b.Fatal(err)
		}
	}
}
