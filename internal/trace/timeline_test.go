package trace_test

import (
	"math/rand"
	"testing"

	"github.com/hpcfail/hpcfail/internal/analysis"
	. "github.com/hpcfail/hpcfail/internal/trace"
)

// A dataset's failure timeline — per-system and per-node failures in time
// order, and window counts over them — is served by analysis.DatasetIndex
// through the Analyzer accessors. These tests pin that timeline on trace
// fixtures against plain scans of the dataset.

func indexedFailures() []Failure {
	return []Failure{
		{System: 1, Node: 0, Time: TS(0), Category: Hardware, HW: Memory},
		{System: 1, Node: 0, Time: TS(10), Category: Software, SW: DST},
		{System: 1, Node: 1, Time: TS(5), Category: Network},
		{System: 1, Node: 2, Time: TS(20), Category: Hardware, HW: CPU},
		{System: 2, Node: 0, Time: TS(7), Category: Environment, Env: UPS},
	}
}

func sortedAnalyzer() *analysis.Analyzer {
	ds := &Dataset{Failures: indexedFailures()}
	ds.Sort()
	return analysis.New(ds)
}

// countIn counts the failures of fs inside iv that match pred.
func countIn(fs []Failure, iv Interval, pred Pred) int {
	n := 0
	for _, f := range fs {
		if iv.Contains(f.Time) && pred.Match(f) {
			n++
		}
	}
	return n
}

// systemCountExcluding counts the system's failures inside iv matching pred
// on nodes other than exclude (exclude < 0 keeps every node).
func systemCountExcluding(a *analysis.Analyzer, system, exclude int, iv Interval, pred Pred) int {
	n := a.DatasetIndex().CountInWindow(system, pred, iv)
	if exclude >= 0 {
		n -= countIn(a.NodeFailures(system, exclude), iv, pred)
	}
	return n
}

func TestIndexCounts(t *testing.T) {
	a := sortedAnalyzer()
	if n := len(a.DS.Failures); n != 5 {
		t.Fatalf("len = %d", n)
	}
	if len(a.NodeFailures(1, 0)) != 2 || len(a.NodeFailures(1, 1)) != 1 || len(a.NodeFailures(9, 9)) != 0 {
		t.Error("node counts wrong")
	}
	fs := a.NodeFailures(1, 0)
	if len(fs) != 2 || !fs[0].Time.Before(fs[1].Time) {
		t.Error("node failures should be time ordered")
	}
	sys := a.SystemFailures(1)
	if len(sys) != 4 {
		t.Errorf("system failures = %d", len(sys))
	}
	for i := 1; i < len(sys); i++ {
		if sys[i].Time.Before(sys[i-1].Time) {
			t.Errorf("system failures out of time order at %d", i)
		}
	}
	if len(a.SystemFailures(9)) != 0 {
		t.Error("unknown system should have no failures")
	}
}

func TestIndexSystemQueries(t *testing.T) {
	a := sortedAnalyzer()
	iv := Interval{Start: TS(0), End: TS(24)}
	if systemCountExcluding(a, 1, 0, iv, nil) == 0 {
		t.Error("system 1 has failures on other nodes")
	}
	// Excluding every failing node leaves nothing in a narrow window.
	if n := systemCountExcluding(a, 1, 1, Interval{Start: TS(4), End: TS(6)}, nil); n != 0 {
		t.Errorf("only node 1 fails in that window, %d others counted", n)
	}
	if n := systemCountExcluding(a, 1, -1, iv, nil); n != 4 {
		t.Errorf("system count = %d", n)
	}
	if n := systemCountExcluding(a, 1, 0, iv, nil); n != 2 {
		t.Errorf("system count excluding node 0 = %d", n)
	}
	if n := a.DatasetIndex().CountInWindow(1, CategoryPred(Network), iv); n != 1 {
		t.Errorf("network count = %d, want node 1's one failure", n)
	}
	if n := countIn(a.NodeFailures(1, 2), iv, CategoryPred(Network)); n != 0 {
		t.Errorf("node 2 has no network failure, counted %d", n)
	}
	if n := a.DatasetIndex().CountInWindow(1, HWPred(Memory), iv); n != 1 {
		t.Errorf("memory count = %d", n)
	}
	// Right-open: the failure at TS(5) is outside [TS(0), TS(5)).
	if n := a.DatasetIndex().CountInWindow(1, nil, Interval{Start: TS(0), End: TS(5)}); n != 1 {
		t.Errorf("window end must be exclusive, counted %d", n)
	}
}

// TestIndexMatchesNaiveScan cross-checks the timeline's node and system
// window counts against a brute-force scan on random data, for an analyzer
// built at once and for one grown by Append with a batch that may reach
// back before the earlier events.
func TestIndexMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(200)
		fs := make([]Failure, n)
		for i := range fs {
			fs[i] = RandomFailure(rng, 3, 16)
		}
		ds := &Dataset{Failures: fs}
		ds.Sort()

		cut := rng.Intn(n + 1)
		first := &Dataset{Failures: append([]Failure(nil), fs[:cut]...)}
		first.Sort()
		grown := analysis.New(first).Append(ds, fs[cut:])

		iv := Interval{
			Start: TS(rng.Intn(10000)),
			End:   TS(rng.Intn(10000)),
		}
		if iv.End.Before(iv.Start) {
			iv.Start, iv.End = iv.End, iv.Start
		}
		var pred Pred
		if rng.Intn(2) == 0 {
			pred = CategoryPred(Categories[rng.Intn(len(Categories))])
		}
		system := 1 + rng.Intn(3)
		node := rng.Intn(16)
		exclude := rng.Intn(16)

		// Naive references.
		naiveCount, naiveSysCount := 0, 0
		for _, f := range ds.Failures {
			if !iv.Contains(f.Time) || !pred.Match(f) {
				continue
			}
			if f.System == system && f.Node == node {
				naiveCount++
			}
			if f.System == system && f.Node != exclude {
				naiveSysCount++
			}
		}
		for label, a := range map[string]*analysis.Analyzer{"new": analysis.New(ds), "append": grown} {
			if got := countIn(a.NodeFailures(system, node), iv, pred); got != naiveCount {
				t.Fatalf("trial %d %s: node count = %d, naive %d", trial, label, got, naiveCount)
			}
			if got := systemCountExcluding(a, system, exclude, iv, pred); got != naiveSysCount {
				t.Fatalf("trial %d %s: system count excluding %d = %d, naive %d", trial, label, exclude, got, naiveSysCount)
			}
			if got, want := len(a.SystemFailures(system)), len(ds.SystemFailures(system)); got != want {
				t.Fatalf("trial %d %s: SystemFailures(%d) = %d events, naive %d", trial, label, system, got, want)
			}
		}
	}
}
