package store_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/simulate"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// bitEqual is reflect.DeepEqual with bit-level float comparison: two values
// are equal iff every float in them has the same bit pattern, so identical
// NaNs compare equal (DeepEqual would reject them) and any rounding drift
// still fails. This is the "bit-identical" differential pin.
func bitEqual(a, b interface{}) bool {
	return bitEqualValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func bitEqualValue(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return false
		}
		return a.IsNil() || bitEqualValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqualValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && (a.IsNil() != b.IsNil()) {
			return false
		}
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqualValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			av, bv := a.MapIndex(k), b.MapIndex(k)
			if !bv.IsValid() || !bitEqualValue(av, bv) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

func genDataset(t *testing.T, seed int64) *trace.Dataset {
	t.Helper()
	ds, err := simulate.Generate(simulate.Options{Seed: seed, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// batchAfter builds a batch of n valid events starting after the newest
// failure of the dataset, cycling over the given systems' nodes.
func batchAfter(ds *trace.Dataset, n int, step time.Duration) []trace.Failure {
	start := ds.Systems[0].Period.End
	for _, s := range ds.Systems {
		if s.Period.End.After(start) {
			start = s.Period.End
		}
	}
	if len(ds.Failures) > 0 {
		if last := ds.Failures[len(ds.Failures)-1].Time; last.After(start) {
			start = last
		}
	}
	out := make([]trace.Failure, 0, n)
	cats := []trace.Failure{
		{Category: trace.Hardware, HW: trace.Memory},
		{Category: trace.Software, SW: trace.OS},
		{Category: trace.Hardware, HW: trace.CPU},
		{Category: trace.Network},
	}
	for i := 0; i < n; i++ {
		s := ds.Systems[i%len(ds.Systems)]
		f := cats[i%len(cats)]
		f.System = s.ID
		f.Node = (i * 7) % s.Nodes
		f.Time = start.Add(time.Duration(i+1) * step)
		out = append(out, f)
	}
	return out
}

// batchInside builds a batch of n valid events landing in the middle of the
// measurement period — late arrivals that force the merge path.
func batchInside(ds *trace.Dataset, n int) []trace.Failure {
	out := make([]trace.Failure, 0, n)
	for i := 0; i < n; i++ {
		s := ds.Systems[i%len(ds.Systems)]
		mid := s.Period.Start.Add(s.Period.Duration() / 2)
		out = append(out, trace.Failure{
			System:   s.ID,
			Node:     (i * 3) % s.Nodes,
			Time:     mid.Add(time.Duration(i) * time.Hour),
			Category: trace.Hardware,
			HW:       trace.Memory,
		})
	}
	return out
}

// requireSameAnalysis pins bit-identity between the incrementally maintained
// snapshot analyzer and a from-scratch rebuild over the same events: the
// acceptance criterion of the versioned store.
func requireSameAnalysis(t *testing.T, label string, snap *store.Snapshot) {
	t.Helper()
	got := snap.Analyzer()
	want := analysis.New(snap.Dataset())
	sys := snap.Dataset().Systems
	hw := trace.CategoryPred(trace.Hardware)
	mem := trace.HWPred(trace.Memory)
	cases := []struct {
		name           string
		anchor, target trace.Pred
		w              time.Duration
	}{
		{"any-any-week", nil, nil, trace.Week},
		{"hw-any-day", hw, nil, trace.Day},
		{"mem-hw-week", mem, hw, trace.Week},
	}
	for _, c := range cases {
		for _, scope := range []analysis.Scope{analysis.ScopeNode, analysis.ScopeRack, analysis.ScopeSystem} {
			g := got.CondProb(sys, c.anchor, c.target, c.w, scope)
			w := want.CondProb(sys, c.anchor, c.target, c.w, scope)
			if !bitEqual(g, w) {
				t.Fatalf("%s: CondProb %s scope %v diverged from rebuild:\nincremental %+v\nrebuild     %+v",
					label, c.name, scope, g, w)
			}
		}
	}
	gl, err1 := got.BuildLiftTable(sys, trace.Week)
	wl, err2 := want.BuildLiftTable(sys, trace.Week)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: BuildLiftTable errors diverged: %v vs %v", label, err1, err2)
	}
	if !bitEqual(gl, wl) {
		t.Fatalf("%s: BuildLiftTable diverged from rebuild", label)
	}
	if gm, wm := got.PairMatrix(sys, trace.Week), want.PairMatrix(sys, trace.Week); !bitEqual(gm, wm) {
		t.Fatalf("%s: PairMatrix diverged from rebuild", label)
	}
}

// TestAppendDifferential is the tentpole's differential pin: after any
// sequence of appends — in-order tails, late arrivals, mixed batches — the
// incrementally maintained indexes answer CondProb, BuildLiftTable and
// PairMatrix bit-identically to NewDatasetIndex built from scratch.
func TestAppendDifferential(t *testing.T) {
	ds := genDataset(t, 21)
	st, err := store.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name  string
		batch func(cur *trace.Dataset) []trace.Failure
	}{
		{"tail-batch", func(cur *trace.Dataset) []trace.Failure { return batchAfter(cur, 40, time.Minute) }},
		{"tail-again", func(cur *trace.Dataset) []trace.Failure { return batchAfter(cur, 17, time.Second) }},
		{"late-arrivals", func(cur *trace.Dataset) []trace.Failure { return batchInside(cur, 9) }},
		{"tail-after-late", func(cur *trace.Dataset) []trace.Failure { return batchAfter(cur, 25, time.Hour) }},
		{"single-event", func(cur *trace.Dataset) []trace.Failure { return batchAfter(cur, 1, time.Minute) }},
	}
	for _, step := range steps {
		snap, err := st.Append(step.batch(st.Snapshot().Dataset()))
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		requireSameAnalysis(t, step.name, snap)
	}
}

// TestVersionMonotonic pins version semantics: versions start at 1 and step
// by exactly 1 per applied batch; rejected and empty batches do not burn a
// version.
func TestVersionMonotonic(t *testing.T) {
	ds := genDataset(t, 3)
	st, err := store.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	if v := st.Version(); v != 1 {
		t.Fatalf("seed version = %d, want 1", v)
	}
	snap, err := st.Append(batchAfter(ds, 5, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 2 {
		t.Fatalf("version after append = %d, want 2", snap.Version())
	}
	if _, err := st.Append([]trace.Failure{{System: 99999, Node: 0, Time: time.Now()}}); err == nil {
		t.Fatal("append of unknown system succeeded")
	}
	if v := st.Version(); v != 2 {
		t.Fatalf("rejected batch moved version to %d", v)
	}
	if _, err := st.Append(nil); err != nil {
		t.Fatal(err)
	}
	if v := st.Version(); v != 2 {
		t.Fatalf("empty batch moved version to %d", v)
	}
}

// TestAppendAtomic pins all-or-nothing batches: one invalid event rejects
// the whole batch, leaving the dataset untouched.
func TestAppendAtomic(t *testing.T) {
	ds := genDataset(t, 4)
	st, err := store.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Snapshot().Events()
	batch := batchAfter(ds, 10, time.Minute)
	batch[7].Node = -1
	if _, err := st.Append(batch); err == nil {
		t.Fatal("batch with invalid event succeeded")
	}
	if got := st.Snapshot().Events(); got != before {
		t.Fatalf("rejected batch changed event count: %d -> %d", before, got)
	}
}

// TestSnapshotIsolation pins the copy-on-write contract: a pinned snapshot's
// dataset, version and query answers are unaffected by later appends.
func TestSnapshotIsolation(t *testing.T) {
	ds := genDataset(t, 5)
	st, err := store.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	pinned := st.Snapshot()
	nBefore := pinned.Events()
	sys := append([]trace.SystemInfo(nil), pinned.Dataset().Systems...)
	before := pinned.Analyzer().CondProb(sys, nil, nil, trace.Week, analysis.ScopeNode)

	for i := 0; i < 4; i++ {
		if _, err := st.Append(batchAfter(st.Snapshot().Dataset(), 20, time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if pinned.Version() != 1 || pinned.Events() != nBefore {
		t.Fatalf("pinned snapshot changed: version %d events %d", pinned.Version(), pinned.Events())
	}
	after := pinned.Analyzer().CondProb(sys, nil, nil, trace.Week, analysis.ScopeNode)
	if !bitEqual(before, after) {
		t.Fatalf("pinned snapshot's answers changed after appends:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestSiblingAppends pins correctness when two appends race for the same
// parent index: the loser of the extension claim must rebuild, not scribble
// over the winner's arrays. Exercised deterministically by appending twice
// to the same pinned analyzer via the index API.
func TestSiblingAppends(t *testing.T) {
	ds := genDataset(t, 6)
	base := analysis.New(ds)
	b1 := batchAfter(ds, 15, time.Minute)
	b2 := batchAfter(ds, 15, time.Second) // same parent, different events

	merge := func(batch []trace.Failure) *trace.Dataset {
		out := *ds
		out.Failures = append(append([]trace.Failure(nil), ds.Failures...), batch...)
		return &out
	}
	m1, m2 := merge(b1), merge(b2)
	a1 := base.Append(m1, b1)
	a2 := base.Append(m2, b2)

	for label, pair := range map[string]struct {
		got    *analysis.Analyzer
		merged *trace.Dataset
	}{"winner": {a1, m1}, "loser": {a2, m2}} {
		want := analysis.New(pair.merged)
		g := pair.got.CondProb(ds.Systems, nil, nil, trace.Week, analysis.ScopeNode)
		w := want.CondProb(ds.Systems, nil, nil, trace.Week, analysis.ScopeNode)
		if !bitEqual(g, w) {
			t.Fatalf("%s diverged from rebuild:\n%+v\n%+v", label, g, w)
		}
	}
	// The base analyzer must be untouched by either append.
	want := analysis.New(ds)
	g := base.CondProb(ds.Systems, nil, nil, trace.Week, analysis.ScopeNode)
	w := want.CondProb(ds.Systems, nil, nil, trace.Week, analysis.ScopeNode)
	if !bitEqual(g, w) {
		t.Fatal("sibling appends mutated the shared parent analyzer")
	}
}

// TestAppendChainCondProbMatchesNaive runs a seeded chain of appends —
// in-order tails and late batches that force a rebuild — and after every
// one checks the snapshot's indexed CondProb against the frozen naive scan
// bit for bit, at all three scopes.
func TestAppendChainCondProbMatchesNaive(t *testing.T) {
	ds := genDataset(t, 33)
	st, err := store.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	hw := trace.CategoryPred(trace.Hardware)
	odd := trace.PredOf(func(f trace.Failure) bool { return f.Node%2 == 1 })
	preds := []trace.Pred{nil, hw, trace.HWPred(trace.Memory), odd}
	for step := 0; step < 8; step++ {
		cur := st.Snapshot().Dataset()
		var batch []trace.Failure
		if rng.Intn(3) == 0 {
			batch = batchInside(cur, 1+rng.Intn(12))
		} else {
			batch = batchAfter(cur, 1+rng.Intn(40), time.Duration(1+rng.Intn(120))*time.Minute)
		}
		snap, err := st.Append(batch)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		a := snap.Analyzer()
		sys := snap.Dataset().Systems
		for _, scope := range []analysis.Scope{analysis.ScopeNode, analysis.ScopeRack, analysis.ScopeSystem} {
			for _, w := range []time.Duration{trace.Day, trace.Week, trace.Month} {
				anchor, target := preds[rng.Intn(len(preds))], preds[rng.Intn(len(preds))]
				g := a.CondProb(sys, anchor, target, w, scope)
				n := a.CondProbNaive(sys, anchor, target, w, scope)
				if !bitEqual(g, n) {
					t.Fatalf("step %d (rebuilds %d): CondProb %v/%v diverged from naive:\nindexed %+v\nnaive   %+v",
						step, snap.Rebuilds(), scope, w, g, n)
				}
			}
		}
	}
	if st.Rebuilds() == 0 {
		t.Fatal("seeded chain never forced a rebuild")
	}
}
