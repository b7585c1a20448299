package analysis

import (
	"math"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// sweepWindows are the windows of the sweep's edge differentials: the
// paper's three, the degenerate empty windows, an odd length, and windows
// of centuries up to the largest Duration.
var sweepWindows = []time.Duration{
	time.Nanosecond, 2 * time.Nanosecond, 36 * time.Hour,
	trace.Day, trace.Week, trace.Month,
	250 * 365 * trace.Day, math.MaxInt64 - 1, math.MaxInt64,
}

// diffSweep checks the indexed kernel against CondProbNaive bit for bit
// over all of a's systems: match-all, class-routed and opaque predicates
// on either side, every scope, every window.
func diffSweep(t *testing.T, a *Analyzer, windows []time.Duration) {
	t.Helper()
	systems := a.DS.Systems
	hw := trace.CategoryPred(trace.Hardware)
	sw := trace.CategoryPred(trace.Software)
	oddNode := trace.PredOf(func(f trace.Failure) bool { return f.Node%2 != 0 })
	preds := []struct {
		label string
		pred  trace.Pred
	}{{"any", nil}, {"hw", hw}, {"sw", sw}, {"odd", oddNode}}
	for _, scope := range []Scope{ScopeNode, ScopeRack, ScopeSystem} {
		for _, w := range windows {
			for _, an := range preds {
				for _, tg := range preds {
					got := a.CondProb(systems, an.pred, tg.pred, w, scope)
					want := a.CondProbNaive(systems, an.pred, tg.pred, w, scope)
					requireCondEqual(t, an.label+"-"+tg.label+"/"+scope.String()+"/"+w.String(), got, want)
				}
			}
		}
	}
}

// edgeDS assembles a sorted one-system dataset over [start, end) with the
// given layout (nil for none).
func edgeDS(nodes int, start, end time.Time, lay *layout.Layout, fs []trace.Failure) *trace.Dataset {
	ds := &trace.Dataset{
		Systems: []trace.SystemInfo{{
			ID: 1, Group: trace.Group1, Nodes: nodes, ProcsPerNode: 4,
			Period: trace.Interval{Start: start, End: end},
		}},
		Failures: fs,
		Layouts:  map[int]*layout.Layout{},
	}
	if lay != nil {
		ds.Layouts[1] = lay
	}
	ds.Sort()
	return ds
}

// ev is a failure of system 1 at time at; odd nodes fail in software.
func ev(node int, at time.Time) trace.Failure {
	if node%2 != 0 {
		return trace.Failure{System: 1, Node: node, Time: at, Category: trace.Software, SW: trace.OS}
	}
	return trace.Failure{System: 1, Node: node, Time: at, Category: trace.Hardware, HW: trace.CPU}
}

// placed puts nodes[i] in racks[i] (position cycling 1..5).
func placed(nodes, racks []int) *layout.Layout {
	lay := layout.New(1)
	for i, n := range nodes {
		_ = lay.SetPlace(n, layout.Place{Rack: racks[i], Position: i%layout.PositionsPerRack + 1})
	}
	return lay
}

func TestSweepWindowEnds(t *testing.T) {
	at := day(10)
	for _, c := range []struct {
		name      string
		offset    time.Duration
		successes int
	}{
		{"same-instant", 0, 0},
		{"one-ns-after", time.Nanosecond, 1},
		{"one-ns-before-end", trace.Week - time.Nanosecond, 1},
		{"exactly-at-end", trace.Week, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			ds := craft([]trace.Failure{
				{System: 1, Node: 0, Time: at, Category: trace.Hardware, HW: trace.CPU},
				{System: 1, Node: 0, Time: at.Add(c.offset), Category: trace.Software, SW: trace.OS},
				{System: 1, Node: 1, Time: at.Add(c.offset), Category: trace.Software, SW: trace.OS},
			})
			a := New(ds)
			sw := trace.CategoryPred(trace.Software)
			hw := trace.CategoryPred(trace.Hardware)
			for _, scope := range []Scope{ScopeNode, ScopeRack, ScopeSystem} {
				got := a.CondProb(ds.Systems, hw, sw, trace.Week, scope)
				if got.Conditional.Successes != c.successes {
					t.Errorf("%s: successes = %d, want %d", scope, got.Conditional.Successes, c.successes)
				}
				requireCondEqual(t, scope.String(), got, a.CondProbNaive(ds.Systems, hw, sw, trace.Week, scope))
			}
		})
	}
}

func TestSweepRackCountsExcludeAnchor(t *testing.T) {
	// Both rack-0 nodes fail inside the anchor's window: the anchor's own
	// follow-up must not count as a rack-mate success.
	ds := craft([]trace.Failure{hwAt(0, 10), hwAt(0, 11), hwAt(1, 12)})
	a := New(ds)
	got := a.CondProb(ds.Systems, nil, nil, trace.Week, ScopeRack)
	// node0@10: mate node1 fails @12 -> 1/1. node0@11: node1 @12 -> 1/1.
	// node1@12: node0 quiet after -> 0/1.
	if got.Conditional.Trials != 3 || got.Conditional.Successes != 2 {
		t.Errorf("rack conditional = %+v, want 2/3", got.Conditional)
	}
	requireCondEqual(t, "rack", got, a.CondProbNaive(ds.Systems, nil, nil, trace.Week, ScopeRack))
}

func TestSweepMatchesNaiveEdges(t *testing.T) {
	start, end := day(0), day(98)
	t.Run("shared-timestamps", func(t *testing.T) {
		var fs []trace.Failure
		for n := 0; n < 40; n++ {
			fs = append(fs, ev(n, day(10)), ev(n, day(12)), ev(n%7, day(12, 1)))
		}
		lay := layout.Regular(1, 40, 4)
		diffSweep(t, New(edgeDS(40, start, end, lay, fs)), sweepWindows)
	})
	t.Run("nodes-outside-range", func(t *testing.T) {
		fs := []trace.Failure{ev(7, day(3)), ev(-1, day(3, 2)), ev(0, day(4)), ev(1000, day(4, 1)),
			ev(-1, day(5)), ev(7, day(5, 3)), ev(2, day(6)), ev(1000, day(6))}
		diffSweep(t, New(edgeDS(4, start, end, placed([]int{0, 1, 2, 3}, []int{0, 0, 1, 1}), fs)), sweepWindows)
	})
	t.Run("layout-rows-out-of-range", func(t *testing.T) {
		// Nodes 9, 100 and -2 are placed but outside [0, 4); rack 3 holds
		// only out-of-range nodes.
		lay := placed([]int{0, 1, 9, 2, 3, 100, -2, 50}, []int{0, 0, 0, 1, 1, 1, 2, 3})
		fs := []trace.Failure{ev(9, day(3)), ev(0, day(3, 1)), ev(100, day(3, 2)), ev(3, day(4)),
			ev(-2, day(4)), ev(50, day(5)), ev(1, day(5, 1)), ev(9, day(5, 2))}
		diffSweep(t, New(edgeDS(4, start, end, lay, fs)), sweepWindows)
	})
	t.Run("one-node-racks", func(t *testing.T) {
		lay := placed([]int{0, 1, 2, 3}, []int{0, 1, 2, 2})
		fs := []trace.Failure{ev(0, day(3)), ev(1, day(3, 1)), ev(0, day(3, 2)), ev(2, day(4)), ev(3, day(4, 5))}
		diffSweep(t, New(edgeDS(4, start, end, lay, fs)), sweepWindows)
	})
	t.Run("unplaced-nodes", func(t *testing.T) {
		lay := placed([]int{0, 1}, []int{0, 0})
		fs := []trace.Failure{ev(2, day(3)), ev(0, day(3, 1)), ev(3, day(3, 2)), ev(1, day(4)), ev(2, day(4, 1))}
		diffSweep(t, New(edgeDS(4, start, end, lay, fs)), sweepWindows)
	})
	t.Run("no-layout", func(t *testing.T) {
		fs := []trace.Failure{ev(2, day(3)), ev(0, day(3, 1)), ev(3, day(3, 2)), ev(1, day(4))}
		diffSweep(t, New(edgeDS(4, start, end, nil, fs)), sweepWindows)
	})
	t.Run("before-period-start", func(t *testing.T) {
		// Sub/w truncates toward zero: events up to one window before the
		// start land in cell 0 on both paths.
		fs := []trace.Failure{ev(0, day(-9)), ev(1, day(-3)), ev(0, day(-1)), ev(2, day(0)), ev(0, day(2))}
		diffSweep(t, New(edgeDS(4, start, end, placed([]int{0, 1, 2, 3}, []int{0, 0, 0, 0}), fs)), sweepWindows)
	})
	t.Run("zero-nodes", func(t *testing.T) {
		fs := []trace.Failure{ev(0, day(3)), ev(1, day(3, 1))}
		diffSweep(t, New(edgeDS(0, start, end, placed([]int{0, 1}, []int{0, 0}), fs)), sweepWindows)
	})
}

// TestSweepExtremeTimes covers the integer timeline's exactness: years
// outside UnixNano's range, offsets and period distances that saturate
// Duration arithmetic, and a timeline too wide for int64 nanoseconds.
func TestSweepExtremeTimes(t *testing.T) {
	year := func(y int) time.Time { return time.Date(y, 3, 1, 0, 0, 0, 0, time.UTC) }
	span := func(ts ...time.Time) []trace.Failure {
		var out []trace.Failure
		for i, at := range ts {
			out = append(out, ev(i%4, at), ev((i+1)%4, at.Add(time.Hour)))
		}
		return out
	}
	days := func(from time.Time, ds ...int) []time.Time {
		var out []time.Time
		for _, d := range ds {
			out = append(out, from.AddDate(0, 0, d))
		}
		return out
	}
	lay := placed([]int{0, 1, 2, 3}, []int{0, 0, 1, 1})
	for _, c := range []struct {
		name       string
		start, end time.Time
		fs         []trace.Failure
	}{
		{"year-1", year(1), year(3), span(days(year(1), 0, 1, 40)...)},
		{"year-1600", year(1600), year(1601), span(days(year(1600), 1, 2, 9)...)},
		{"year-9000", year(9000), year(9001), span(days(year(9000), 1, 2, 9)...)},
		// The period opens ~1,000 years before the events: base - start
		// saturates, so the baseline takes the time.Time path.
		{"far-period-start", year(1000), year(2001), span(days(year(2000), 1, 5)...)},
		// The period opens ~310 years after the first event: base - start
		// saturates negative, yet later events are back inside Duration's
		// range of the start, and within a 250-year window before it.
		{"period-after-events", year(2300), year(2600), span(year(1990), year(2040))},
		// base - start is just under the Duration limit and later
		// offsets push the sum past it.
		{"saturating-offsets", year(1700), year(2300), span(days(year(1991), 0, 200, 2*365)...)},
		// More than 292 years between events: no exact int64 timeline.
		{"wide-timeline", year(1500), year(2600), span(year(1500), year(1500).Add(trace.Day), year(1900), year(2500))},
		// A period longer than the largest Duration, so max-Duration
		// windows have anchors and baseline cells.
		{"max-windows", year(1600), year(2300), span(days(year(1700), 0, 7, 100*365)...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			diffSweep(t, New(edgeDS(4, c.start, c.end, lay, c.fs)), sweepWindows)
		})
	}
}

// TestSweepAppendChain grows an analyzer batch by batch, including batches
// older than its newest event (which rebuild that system), and checks the
// appended index against the naive scan after every step.
func TestSweepAppendChain(t *testing.T) {
	lay := placed([]int{0, 1, 2, 3, 4, 5}, []int{0, 0, 0, 1, 1, 2})
	a := New(edgeDS(6, day(0), day(98), lay, nil))
	batches := [][]trace.Failure{
		{ev(0, day(3)), ev(1, day(3)), ev(2, day(4))},
		{ev(3, day(5)), ev(4, day(5, 1))},
		{ev(5, day(2)), ev(0, day(9))}, // late: forces a rebuild
		{ev(1, day(9)), ev(9, day(10)), ev(2, day(11))},
		{ev(0, day(1)), ev(3, day(60)), ev(4, day(61))}, // late again
	}
	for i, b := range batches {
		merged := *a.DS
		merged.Failures = append(append([]trace.Failure(nil), a.DS.Failures...), b...)
		merged.Sort()
		a = a.Append(&merged, b)
		diffSweep(t, a, []time.Duration{trace.Day, trace.Week, trace.Month})
		if t.Failed() {
			t.Fatalf("diverged after batch %d", i)
		}
	}
}

// FuzzCondProbIndexed decodes a small two-system catalog (one layout with
// out-of-range rows and a one-node rack, one without a layout) from the
// input, split into a base dataset and an appended batch, and checks the
// indexed kernel against CondProbNaive bit for bit on a query the input
// also chooses. It must never panic.
func FuzzCondProbIndexed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x21, 0x05, 0x10, 0x13, 0x05, 0x10, 0x24, 0x07, 0x90, 0x02, 0x30})
	f.Add([]byte{0x7f, 0xff, 0x01, 0x00, 0x01, 0x00, 0x81, 0x00, 0x00, 0x45, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*128+4 {
			data = data[:3*128+4]
		}
		if len(data) < 4 {
			return
		}
		q, data := data[:4], data[4:]
		start := day(0)
		lay := placed([]int{0, 1, 2, 3, 4, 9, -1}, []int{0, 0, 1, 1, 2, 1, 0})
		ds := &trace.Dataset{
			Systems: []trace.SystemInfo{
				{ID: 1, Group: trace.Group1, Nodes: 6, ProcsPerNode: 4,
					Period: trace.Interval{Start: start, End: start.Add(60 * trace.Day)}},
				{ID: 2, Group: trace.Group2, Nodes: 3, ProcsPerNode: 16,
					Period: trace.Interval{Start: start, End: start.Add(30 * trace.Day)}},
			},
			Layouts: map[int]*layout.Layout{1: lay},
		}
		var evs []trace.Failure
		for i := 0; i+3 <= len(data); i += 3 {
			b0, b1, b2 := data[i], data[i+1], data[i+2]
			fl := ev(int(b0%12)-1, start.Add(time.Duration(int(b1)|int(b2&0x0f)<<8-64)*time.Hour))
			fl.System = 1 + int(b0>>7)
			if b2&0x10 != 0 {
				fl.Time = fl.Time.Add(time.Duration(b0) * time.Minute)
			}
			if b2&0x20 != 0 {
				fl.Category, fl.HW = trace.Hardware, trace.Memory
			}
			evs = append(evs, fl)
		}
		cut := 0
		if len(evs) > 0 {
			cut = int(q[3]) % (len(evs) + 1)
		}
		base := *ds
		base.Failures = append([]trace.Failure(nil), evs[:cut]...)
		base.Sort()
		a := New(&base)
		if batch := evs[cut:]; len(batch) > 0 {
			merged := *ds
			merged.Failures = append([]trace.Failure(nil), evs...)
			merged.Sort()
			a = a.Append(&merged, batch)
		}
		preds := []trace.Pred{nil, trace.CategoryPred(trace.Hardware), trace.HWPred(trace.Memory),
			trace.CategoryPred(trace.Software), trace.PredOf(func(f trace.Failure) bool { return f.Node%3 == 0 })}
		windows := []time.Duration{time.Nanosecond, 2 * time.Nanosecond, time.Hour, trace.Day, trace.Week,
			trace.Month, 100 * trace.Day, math.MaxInt64}
		anchor, target := preds[int(q[0])%len(preds)], preds[int(q[0]/8)%len(preds)]
		w := windows[int(q[1])%len(windows)]
		scope := Scope(int(q[2])%3 + 1)
		systems := a.DS.Systems
		if q[2]&0x80 != 0 {
			systems = systems[:1]
		}
		got := a.CondProb(systems, anchor, target, w, scope)
		want := a.CondProbNaive(systems, anchor, target, w, scope)
		requireCondEqual(t, "fuzz", got, want)
	})
}
