package analysis

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// isolationNodes and isolationRacks are the node and rack IDs the isolation
// test reads lists of: the six in-range nodes, placed node 9 and unplaced
// nodes 17 and -1 outside [0, Nodes), and every rack plus two unknown IDs.
var (
	isolationNodes = []int{-1, 0, 1, 2, 3, 4, 5, 9, 17}
	isolationRacks = []int{-1, 0, 1, 2, 7}
)

// requireIntact fails the test unless every posting list of x holds only
// ascending positions below its system's Events(), and x reads the same,
// list for list, as an index built from scratch over ds.
func requireIntact(t *testing.T, label string, x *DatasetIndex, ds *trace.Dataset) {
	t.Helper()
	want := NewDatasetIndex(ds)
	for _, s := range ds.Systems {
		v, ok := x.SystemView(s.ID)
		w, wok := want.SystemView(s.ID)
		if ok != wok {
			t.Fatalf("%s: system %d present %v, rebuilt index %v", label, s.ID, ok, wok)
		}
		n := v.Events()
		if n != w.Events() {
			t.Fatalf("%s: system %d has %d events, rebuilt index %d", label, s.ID, n, w.Events())
		}
		for i := 0; i < n; i++ {
			if v.Failure(i) != w.Failure(i) {
				t.Fatalf("%s: event %d is %+v, rebuilt index %+v", label, i, v.Failure(i), w.Failure(i))
			}
		}
		check := func(what string, got, want []int32) {
			t.Helper()
			for i, p := range got {
				if int(p) >= n || i > 0 && p <= got[i-1] {
					t.Fatalf("%s: %s = %v: not ascending positions below Events() = %d", label, what, got, n)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s = %v, rebuilt index %v", label, what, got, want)
			}
		}
		for c := trace.Class(0); c < trace.NumClasses; c++ {
			check("ClassList", v.ClassList(c), w.ClassList(c))
			for _, node := range isolationNodes {
				check("NodeClassList", v.NodeClassList(node, c), w.NodeClassList(node, c))
			}
			for _, rack := range isolationRacks {
				check("RackClassList", v.RackClassList(rack, c), w.RackClassList(rack, c))
			}
		}
	}
}

// TestAppendLeavesPinnedSnapshotsIntact pins every index of a chain of
// one-event appends and, after each append, checks every pinned index
// against a rebuild over its own dataset. The events repeat nodes and racks
// in time order (in-place growth), fall outside [0, Nodes) (the side map),
// arrive late (a rebuild, which the chain then extends), and fork: two
// appends from one parent, of which only the first may grow it in place.
func TestAppendLeavesPinnedSnapshotsIntact(t *testing.T) {
	lay := placed([]int{0, 1, 2, 3, 4, 5, 9}, []int{0, 0, 1, 1, 2, 2, 1})
	ds := edgeDS(6, day(0), day(98), lay, []trace.Failure{ev(0, day(1)), ev(2, day(1, 3)), ev(3, day(2))})
	type pin struct {
		ds *trace.Dataset
		x  *DatasetIndex
	}
	pins := []pin{{ds, NewDatasetIndex(ds)}}
	appendOne := func(from pin, f trace.Failure) pin {
		merged := *from.ds
		merged.Failures = append(slices.Clip(from.ds.Failures), f)
		merged.Sort()
		return pin{&merged, from.x.Append(&merged, []trace.Failure{f})}
	}
	steps := []trace.Failure{
		ev(0, day(3)), ev(0, day(3, 1)), ev(1, day(3, 2)), ev(0, day(4)), // node 0, rack 0
		ev(2, day(5)), ev(3, day(5, 1)), ev(2, day(5, 2)), ev(2, day(6)), // rack 1
		ev(9, day(7)), ev(17, day(7, 1)), ev(-1, day(7, 2)), ev(9, day(8)), // outside [0, Nodes)
		ev(4, day(2, 5)),                // late: rebuilds the system
		ev(4, day(9)), ev(5, day(9, 1)), // and the chain grows the rebuild in place
		ev(0, day(10)), ev(17, day(10, 1)), ev(1, day(11)),
	}
	for i, f := range steps {
		pins = append(pins, appendOne(pins[len(pins)-1], f))
		for j, p := range pins {
			requireIntact(t, fmt.Sprintf("after step %d, pin %d", i, j), p.x, p.ds)
		}
	}
	// A fork: the parent's extension claim is spent by the first child, so
	// the second rebuilds; neither may disturb the parent or each other.
	parent := pins[len(pins)-1]
	first := appendOne(parent, ev(0, day(12)))
	second := appendOne(parent, ev(2, day(12)))
	for _, p := range []struct {
		label string
		pin
	}{{"parent", parent}, {"first child", first}, {"second child", second}} {
		requireIntact(t, "fork "+p.label, p.x, p.ds)
	}
}

// TestAppendChainRetention appends 5,000 one-event batches to a 1,024-node
// system, keeping only the newest index, and bounds the live heap it grows
// by. A live index must not keep its ancestors reachable: each one holds a
// node directory of 8 KB here, so retaining them costs tens of megabytes,
// against the ~2 MB the appended events themselves need.
func TestAppendChainRetention(t *testing.T) {
	const (
		nodes   = 1024
		appends = 5000
		bound   = 8 << 20
	)
	var ids, racks []int
	for n := 0; n < nodes; n++ {
		ids, racks = append(ids, n), append(racks, n/32)
	}
	ds := edgeDS(nodes, day(0), day(98), placed(ids, racks), nil)
	x := NewDatasetIndex(ds)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		f := ev(i*7919%nodes, day(1).Add(time.Duration(i)*time.Minute))
		x = x.Append(ds, []trace.Failure{f})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if v, _ := x.SystemView(1); v.Events() != appends {
		t.Fatalf("index holds %d events, want %d", v.Events(), appends)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap growth over %d appends: %.2f MB", appends, float64(growth)/(1<<20))
	if growth > bound {
		t.Fatalf("live heap grew %.1f MB over %d one-event appends, bound %.1f MB: the newest index keeps its ancestors reachable",
			float64(growth)/(1<<20), appends, float64(bound)/(1<<20))
	}
	runtime.KeepAlive(x)
}
