package analysis

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/faultinject"
	"github.com/hpcfail/hpcfail/internal/simulate"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/validate"
)

// anchorClasses are the eight anchor classes of the paper's figures (and of
// the risk engine's lift table): the six categories plus the two hardware
// leaves broken out separately.
func anchorClasses() []struct {
	label string
	pred  trace.Pred
} {
	out := []struct {
		label string
		pred  trace.Pred
	}{}
	for _, c := range trace.FigureOrder {
		out = append(out, struct {
			label string
			pred  trace.Pred
		}{c.String(), trace.CategoryPred(c)})
	}
	for _, hw := range []trace.HWComponent{trace.Memory, trace.CPU} {
		out = append(out, struct {
			label string
			pred  trace.Pred
		}{"HW/" + hw.String(), trace.HWPred(hw)})
	}
	return out
}

func floatEq(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// requireCondEqual fails the test unless the two results are bit-identical
// (NaN compares equal to NaN: derived stats of empty cells are NaN on both
// sides).
func requireCondEqual(t *testing.T, label string, got, want CondResult) {
	t.Helper()
	if got.Window != want.Window || got.Scope != want.Scope {
		t.Fatalf("%s: metadata differs: got %v/%v want %v/%v", label, got.Window, got.Scope, want.Window, want.Scope)
	}
	if got.Conditional != want.Conditional {
		t.Errorf("%s: conditional %+v, naive %+v", label, got.Conditional, want.Conditional)
	}
	if got.Baseline != want.Baseline {
		t.Errorf("%s: baseline %+v, naive %+v", label, got.Baseline, want.Baseline)
	}
	pairs := []struct {
		name   string
		gv, wv float64
	}{
		{"CondCI.Lo", got.CondCI.Lo, want.CondCI.Lo},
		{"CondCI.Hi", got.CondCI.Hi, want.CondCI.Hi},
		{"BaseCI.Lo", got.BaseCI.Lo, want.BaseCI.Lo},
		{"BaseCI.Hi", got.BaseCI.Hi, want.BaseCI.Hi},
		{"FactorCI.Lo", got.FactorCI.Lo, want.FactorCI.Lo},
		{"FactorCI.Hi", got.FactorCI.Hi, want.FactorCI.Hi},
		{"Test.Stat", got.Test.Stat, want.Test.Stat},
		{"Test.P", got.Test.P, want.Test.P},
	}
	for _, p := range pairs {
		if !floatEq(p.gv, p.wv) {
			t.Errorf("%s: %s = %v, naive %v", label, p.name, p.gv, p.wv)
		}
	}
}

// diffCondProb runs the full differential sweep over one dataset: all eight
// anchor classes x three scopes at the day, week and month windows, plus
// match-all and opaque predicates, over every system and over the group-1
// and group-2 subsets the server also draws.
func diffCondProb(t *testing.T, ds *trace.Dataset) {
	t.Helper()
	a := New(ds)
	scopes := []Scope{ScopeNode, ScopeRack, ScopeSystem}
	windows := []time.Duration{trace.Day, trace.Week, trace.Month}
	subsets := []struct {
		label   string
		systems []trace.SystemInfo
	}{
		{"all", ds.Systems},
		{"g1", groupOf(ds, trace.Group1)},
		{"g2", groupOf(ds, trace.Group2)},
	}
	// Match-all anchor and target, same-type pairs, and opaque predicates
	// (which bypass the posting-list fast path).
	hw := trace.CategoryPred(trace.Hardware)
	weekend := trace.PredOf(func(f trace.Failure) bool {
		return f.Time.Weekday() == time.Saturday || f.Time.Weekday() == time.Sunday
	})
	extra := []struct {
		label          string
		anchor, target trace.Pred
	}{
		{"any-any", nil, nil},
		{"hw-hw", hw, hw},
		{"any-hw", nil, hw},
		{"opaque-anchor", weekend, nil},
		{"opaque-target", hw, weekend},
		{"opaque-both", weekend, weekend},
	}
	for _, sub := range subsets {
		for _, scope := range scopes {
			for _, w := range windows {
				label := sub.label + "/" + scope.String() + "/" + trace.WindowName(w)
				for _, anchor := range anchorClasses() {
					got := a.CondProb(sub.systems, anchor.pred, nil, w, scope)
					want := a.CondProbNaive(sub.systems, anchor.pred, nil, w, scope)
					requireCondEqual(t, anchor.label+"/"+label, got, want)
				}
				for _, c := range extra {
					got := a.CondProb(sub.systems, c.anchor, c.target, w, scope)
					want := a.CondProbNaive(sub.systems, c.anchor, c.target, w, scope)
					requireCondEqual(t, c.label+"/"+label, got, want)
				}
			}
		}
	}
}

// groupOf returns the systems of one hardware group.
func groupOf(ds *trace.Dataset, g trace.Group) []trace.SystemInfo {
	var out []trace.SystemInfo
	for _, s := range ds.Systems {
		if s.Group == g {
			out = append(out, s)
		}
	}
	return out
}

func TestIndexedCondProbMatchesNaive(t *testing.T) {
	ds, err := simulate.Generate(simulate.Options{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	diffCondProb(t, ds)
}

func TestIndexedCondProbMatchesNaiveEdgeDatasets(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		diffCondProb(t, craft(nil))
	})
	t.Run("single-event", func(t *testing.T) {
		diffCondProb(t, craft([]trace.Failure{hwAt(0, 10)}))
	})
	t.Run("all-same-timestamp", func(t *testing.T) {
		fs := []trace.Failure{hwAt(0, 10), swAt(1, 10), hwAt(2, 10), swAt(3, 10), hwAt(0, 10)}
		diffCondProb(t, craft(fs))
	})
	t.Run("no-layout", func(t *testing.T) {
		ds := craft([]trace.Failure{hwAt(0, 10), hwAt(1, 11), swAt(2, 12)})
		delete(ds.Layouts, 1)
		diffCondProb(t, ds)
	})
}

// TestIndexedCondProbMatchesNaiveCorrupted pins the differential property
// across the corruption pipeline: a dataset corrupted on disk and re-loaded
// under the lenient and repair policies must give identical indexed and
// naive answers.
func TestIndexedCondProbMatchesNaiveCorrupted(t *testing.T) {
	ds, err := simulate.Generate(simulate.Options{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := faultinject.CorruptDataset(dir, ds, faultinject.Spec{Seed: 11, Rate: 0.3}); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []struct {
		name string
		p    validate.Policy
	}{
		{"lenient", validate.DefaultPolicy()},
		{"repair", validate.RepairPolicy()},
	} {
		t.Run(policy.name, func(t *testing.T) {
			got, _, err := trace.LoadDirWith(dir, policy.p)
			if err != nil {
				t.Fatal(err)
			}
			diffCondProb(t, got)
		})
	}
}

// TestDatasetIndexConcurrentReads hammers one shared analyzer from many
// goroutines; run under -race it proves query evaluation never mutates the
// index.
func TestDatasetIndexConcurrentReads(t *testing.T) {
	ds, err := simulate.Generate(simulate.Options{Seed: 9, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	a := New(ds)
	want := a.CondProb(ds.Systems, trace.CategoryPred(trace.Hardware), nil, trace.Week, ScopeSystem)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scope := []Scope{ScopeNode, ScopeRack, ScopeSystem}[i%3]
			for j := 0; j < 3; j++ {
				got := a.CondProb(ds.Systems, trace.CategoryPred(trace.Hardware), nil, trace.Week, scope)
				if scope == ScopeSystem && got.Conditional != want.Conditional {
					t.Errorf("concurrent read diverged: %+v vs %+v", got.Conditional, want.Conditional)
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestCountInWindow(t *testing.T) {
	ds := craft([]trace.Failure{hwAt(0, 10), swAt(1, 12), hwAt(2, 40)})
	a := New(ds)
	iv := trace.Interval{Start: day(9), End: day(20)}
	if n := a.didx.CountInWindow(1, nil, iv); n != 2 {
		t.Errorf("any count = %d, want 2", n)
	}
	if n := a.didx.CountInWindow(1, trace.CategoryPred(trace.Hardware), iv); n != 1 {
		t.Errorf("hw count = %d, want 1", n)
	}
	opaque := trace.PredOf(func(f trace.Failure) bool { return f.Node == 1 })
	if n := a.didx.CountInWindow(1, opaque, iv); n != 1 {
		t.Errorf("opaque count = %d, want 1", n)
	}
	if n := a.didx.CountInWindow(99, nil, iv); n != 0 {
		t.Errorf("unknown system count = %d, want 0", n)
	}
}
