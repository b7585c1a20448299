package analysis

import (
	"maps"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// DatasetIndex is the analyzer's one event index: every failure-timeline
// read (a system's or a node's failures in time order) and every indexed
// kernel answers from it. It precomputes, once per dataset, everything the
// conditional-probability kernel needs to answer an (anchor, target,
// window, scope) query in one time-ordered sweep: per-system time-sorted
// event timelines with class-partitioned posting lists at system, node and
// rack granularity, plus each system's layout in dense form. A posting list
// stores positions into the system timeline in time order, so an event's
// position in its list doubles as the cumulative count of earlier
// same-class events and a count-in-window is two binary searches.
//
// Predicates built from the standard constructors route to the posting list
// of their trace.Class; PredOf predicates (trace.ClassOpaque) fall back to
// the ClassAny timeline filtered per event. The index is immutable once
// published and safe for concurrent readers; Append extends it copy-on-write
// without disturbing readers of the old value.
type DatasetIndex struct {
	sys map[int]*systemIndex
}

// nodeClassKey addresses one (node, class) or (rack, class) posting list.
type nodeClassKey struct {
	id  int
	cls trace.Class
}

// systemIndex holds the per-system timelines and posting lists.
type systemIndex struct {
	fails []trace.Failure // the system's failures in dataset (time) order

	// tl[i] is fails[i].Time in nanoseconds after base, the first event's
	// time, so the kernels' window arithmetic is integer arithmetic. wide
	// marks a timeline spanning more than an int64 of nanoseconds (~292
	// years; hand-built data only), whose kernels use time.Time instead.
	base time.Time
	tl   []int64
	wide bool

	byClass   [trace.NumClasses][]int32
	nodeClass map[nodeClassKey][]int32
	rackClass map[nodeClassKey][]int32

	// racks is the system's layout in dense form (empty without a layout),
	// built once and shared by every snapshot appended from this one.
	racks *rackLayout

	// extended is claimed (once, by CAS) by the first Append that wants to
	// grow this system's slices into their spare capacity. Readers only ever
	// look at the first len elements they were published with, so tail
	// growth by the unique claim holder is safe; any other Append that
	// reaches this system loses the claim and rebuilds it instead.
	extended atomic.Bool
}

// rackLayout is a layout as dense rack ordinals, immutable once built:
// ord[n] is 1 + node n's rack ordinal (0 if unplaced) for n below the node
// count, over holds placed nodes outside that range, and ids and size give
// each ordinal's rack ID and placed-node count.
type rackLayout struct {
	ord  []int32
	over map[int]int32
	ids  []int
	size []int32
}

// newRackLayout densifies the layout of system id of ds (empty without one).
func newRackLayout(ds *trace.Dataset, id int) *rackLayout {
	lay := ds.Layouts[id]
	if lay == nil {
		return &rackLayout{}
	}
	info, _ := ds.System(id)
	rl := &rackLayout{ord: make([]int32, max(info.Nodes, 0)), over: make(map[int]int32)}
	for o, r := range lay.Racks() {
		members := lay.NodesInRack(r)
		rl.ids = append(rl.ids, r)
		rl.size = append(rl.size, int32(len(members)))
		for _, n := range members {
			if uint(n) < uint(len(rl.ord)) {
				rl.ord[n] = int32(o) + 1
			} else {
				rl.over[n] = int32(o)
			}
		}
	}
	return rl
}

// rackOf returns the rack ordinal of a placed node.
func (rl *rackLayout) rackOf(n int) (int32, bool) {
	if uint(n) < uint(len(rl.ord)) {
		return rl.ord[n] - 1, rl.ord[n] > 0
	}
	o, ok := rl.over[n]
	return o, ok
}

// NewDatasetIndex builds the index over a sorted dataset. Every system
// mentioned by ds.Systems or by a failure record gets an entry, so queries
// over empty or unknown systems degrade to empty posting lists.
func NewDatasetIndex(ds *trace.Dataset) *DatasetIndex {
	x := &DatasetIndex{sys: make(map[int]*systemIndex, len(ds.Systems))}
	sysOf := func(id int) *systemIndex {
		si := x.sys[id]
		if si == nil {
			si = newSystemIndex(newRackLayout(ds, id))
			x.sys[id] = si
		}
		return si
	}
	for _, s := range ds.Systems {
		sysOf(s.ID)
	}
	var clsBuf [4]trace.Class
	for _, f := range ds.Failures {
		sysOf(f.System).add(f, clsBuf[:0])
	}
	return x
}

// newSystemIndex returns an empty per-system index sharing the given dense
// layout (which is immutable once built).
func newSystemIndex(racks *rackLayout) *systemIndex {
	return &systemIndex{
		nodeClass: make(map[nodeClassKey][]int32),
		rackClass: make(map[nodeClassKey][]int32),
		racks:     racks,
	}
}

// add indexes one event at the tail of the timeline. The event's time must
// not precede the current last event. clsBuf is scratch for ClassesOf.
func (si *systemIndex) add(f trace.Failure, clsBuf []trace.Class) {
	p := int32(len(si.fails))
	if p == 0 {
		si.base = f.Time
	}
	si.fails = append(si.fails, f)
	off, exact := offsetOf(f.Time, si.base)
	si.wide = si.wide || !exact
	si.tl = append(si.tl, off)
	r, placed := si.racks.rackOf(f.Node)
	for _, c := range trace.ClassesOf(f, clsBuf) {
		si.byClass[c] = append(si.byClass[c], p)
		k := nodeClassKey{f.Node, c}
		si.nodeClass[k] = append(si.nodeClass[k], p)
		if placed {
			rk := nodeClassKey{si.racks.ids[r], c}
			si.rackClass[rk] = append(si.rackClass[rk], p)
		}
	}
}

// cowCopy returns a copy of si with freshly allocated posting-list maps so
// the copy can grow without mutating map state concurrent readers of si are
// iterating. The slice headers (timeline and posting lists) are shared; the
// caller must hold the parent index's extension claim before appending to
// them in place.
func (si *systemIndex) cowCopy() *systemIndex {
	return &systemIndex{
		fails:     si.fails,
		base:      si.base,
		tl:        si.tl,
		wide:      si.wide,
		byClass:   si.byClass,
		nodeClass: maps.Clone(si.nodeClass),
		rackClass: maps.Clone(si.rackClass),
		racks:     si.racks,
	}
}

// offsetOf returns t in nanoseconds after base, and whether that is exact
// (false beyond an int64 of nanoseconds, where Sub saturates).
func offsetOf(t, base time.Time) (int64, bool) {
	d := t.Sub(base)
	if d == math.MaxInt64 || d == math.MinInt64 {
		return int64(d), base.Add(d).Equal(t)
	}
	return int64(d), true
}

// sortBatch orders a batch by (time, node, category) so equal inputs index
// identically regardless of arrival order within the batch. The sort is
// stable, so a batch the store already sorted keeps its order and each
// timeline stays the store's failure log projected onto its system.
func sortBatch(evs []trace.Failure) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Category < b.Category
	})
}

// mergeByTime merges two time-sorted event sequences, older entries first on
// ties, into a fresh slice.
func mergeByTime(a, b []trace.Failure) []trace.Failure {
	out := make([]trace.Failure, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if !b[j].Time.Before(a[i].Time) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Append returns a new index covering x's events plus batch, leaving x and
// every snapshot sharing its slices untouched. ds supplies layouts for
// systems the batch introduces; batch events need not be sorted.
//
// Appends whose events land at or after a touched system's last indexed
// event extend that system's time-sorted slices and posting lists in place —
// amortized O(log n) per event plus a posting-map copy bounded by the
// system's (node × class) catalog. In-place growth requires winning the
// system's one-shot extension claim, which every linear chain of appends
// (the versioned store's write path) does; late-arriving events, or a second
// Append racing for the same parent system, fall back to rebuilding just
// that system, which is slower but yields the same index contents.
// Untouched systems are always shared.
func (x *DatasetIndex) Append(ds *trace.Dataset, batch []trace.Failure) *DatasetIndex {
	if len(batch) == 0 {
		return x
	}
	nx := &DatasetIndex{sys: make(map[int]*systemIndex, len(x.sys)+1)}
	for id, si := range x.sys {
		nx.sys[id] = si
	}
	var order []int
	perSys := make(map[int][]trace.Failure)
	for _, f := range batch {
		if _, ok := perSys[f.System]; !ok {
			order = append(order, f.System)
		}
		perSys[f.System] = append(perSys[f.System], f)
	}
	var clsBuf [4]trace.Class
	for _, id := range order {
		evs := perSys[id]
		sortBatch(evs)
		old := x.sys[id]
		var ns *systemIndex
		switch {
		case old == nil:
			ns = newSystemIndex(newRackLayout(ds, id))
		case (len(old.fails) == 0 || !evs[0].Time.Before(old.fails[len(old.fails)-1].Time)) &&
			old.extended.CompareAndSwap(false, true):
			ns = old.cowCopy()
		default:
			evs = mergeByTime(old.fails, evs)
			ns = newSystemIndex(old.racks)
		}
		for _, f := range evs {
			ns.add(f, clsBuf[:0])
		}
		nx.sys[id] = ns
	}
	return nx
}

// system returns the per-system index, or nil when the system has no entry.
func (x *DatasetIndex) system(id int) *systemIndex {
	if x == nil {
		return nil
	}
	return x.sys[id]
}

// CountInWindow returns the number of failures of the system matching pred
// inside iv, from the cumulative posting-list positions: two binary searches
// for class-routed predicates, a window-bounded filter for opaque ones.
func (x *DatasetIndex) CountInWindow(system int, pred trace.Pred, iv trace.Interval) int {
	si := x.system(system)
	if si == nil {
		return 0
	}
	cls, fil := routePred(pred)
	list := si.byClass[cls]
	lo, hi := si.lowerBound(list, iv.Start), si.lowerBound(list, iv.End)
	if fil == nil {
		return max(hi-lo, 0) // an inverted interval holds nothing
	}
	n := 0
	for i := lo; i < hi; i++ {
		if fil.Match(si.fails[list[i]]) {
			n++
		}
	}
	return n
}

// routePred splits a predicate into the posting-list class that answers it
// and the residual per-event filter: class-routed predicates need no filter,
// opaque ones scan the ClassAny timeline and keep the predicate as filter.
func routePred(pred trace.Pred) (trace.Class, trace.Pred) {
	cls := pred.Class()
	if cls == trace.ClassOpaque {
		return trace.ClassAny, pred
	}
	return cls, nil
}

// lowerBound returns the first position of list whose event time is not
// before t. list holds timeline positions in ascending time order.
func (si *systemIndex) lowerBound(list []int32, t time.Time) int {
	return sort.Search(len(list), func(i int) bool { return !si.fails[list[i]].Time.Before(t) })
}

// upperBoundAnchors returns the number of leading list positions whose
// events start a w-window fitting inside the period (time + w <= period
// end), the indexed form of the naive scan's per-anchor window clipping.
// Wide timelines never reach it.
func (si *systemIndex) upperBoundAnchors(list []int32, periodEnd time.Time, w time.Duration) int {
	if k, exact := offsetOf(periodEnd.Add(-w), si.base); exact || k < 0 {
		return upTo(si.tl, list, k)
	}
	return len(list)
}

// upTo returns the number of leading list entries whose offset is <= k.
func upTo(tl []int64, list []int32, k int64) int {
	return sort.Search(len(list), func(i int) bool { return tl[list[i]] > k })
}
