package analysis

import (
	"maps"
	"math"
	"math/bits"
	"slices"
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

	byClass [trace.NumClasses][]int32

	// nodes is the per-node posting-list directory for node IDs in
	// [0, system node count), over holds any other node ID, and racks is
	// the per-rack directory by rack ordinal. An entry stays nil until its
	// node or rack has an event.
	nodes []*classLists
	over  map[int]*classLists
	racks []*classLists

	// layout is the system's layout in dense form (empty without a layout),
	// built once and shared by every snapshot appended from this one.
	layout *rackLayout

	// gen is this index's generation: 0 when built from scratch, its
	// parent's plus one when it is the parent's copy-on-write copy. The
	// class lists tagged with it are the ones this index may append to in
	// place (see own); every list it inherited carries a smaller one.
	gen uint64

	// extended is claimed (once, by CAS) by the first Append that wants to
	// grow this system's slices into their spare capacity. Readers only ever
	// look at the first len elements they were published with, so tail
	// growth by the unique claim holder is safe; any other Append that
	// reaches this system loses the claim and rebuilds it instead.
	extended atomic.Bool
}

// classLists is one node's or one rack's posting lists, held only for the
// classes it has events of: bit c of mask is set when class c has a list,
// and lists holds those lists in class order, so class c's is at the
// number of set bits below c. A node meets a few of the NumClasses classes,
// so a dense per-class array would be mostly empty headers. gen is the
// generation of the systemIndex that allocated it, the only index that may
// write to it; its descendants copy it before their first write. The owner
// tag is a number rather than a pointer to the owning index: a pointer
// would keep every ancestor of an append chain reachable.
type classLists struct {
	gen   uint64
	mask  uint32
	lists [][]int32
}

// The class bitmask must hold every dense class.
var _ [32 - trace.NumClasses]struct{}

// add appends position p to class c's list, creating the list when c is
// new here.
func (cl *classLists) add(c trace.Class, p int32) {
	bit := uint32(1) << c
	i := bits.OnesCount32(cl.mask & (bit - 1))
	if cl.mask&bit == 0 {
		cl.mask |= bit
		cl.lists = slices.Insert(cl.lists, i, nil)
	}
	cl.lists[i] = append(cl.lists[i], p)
}

// rackLayout is a layout as dense rack ordinals, immutable once built:
// ord[n] is 1 + node n's rack ordinal (0 if unplaced) for n below the node
// count, over holds placed nodes outside that range, ids and size give each
// ordinal's rack ID and placed-node count, and ordOf maps a rack ID back to
// its ordinal.
type rackLayout struct {
	ord   []int32
	over  map[int]int32
	ids   []int
	size  []int32
	ordOf map[int]int32
}

// newRackLayout densifies the layout of system id of ds (empty without one).
func newRackLayout(ds *trace.Dataset, id int) *rackLayout {
	lay := ds.Layouts[id]
	if lay == nil {
		return &rackLayout{}
	}
	rl := &rackLayout{ord: make([]int32, systemNodes(ds, id)), over: make(map[int]int32), ordOf: make(map[int]int32)}
	for o, r := range lay.Racks() {
		members := lay.NodesInRack(r)
		rl.ids = append(rl.ids, r)
		rl.size = append(rl.size, int32(len(members)))
		rl.ordOf[r] = int32(o)
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

// systemNodes returns the node count of system id of ds (0 when unknown).
func systemNodes(ds *trace.Dataset, id int) int {
	info, _ := ds.System(id)
	return max(info.Nodes, 0)
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
			si = newSystemIndex(systemNodes(ds, id), newRackLayout(ds, id))
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

// newSystemIndex returns an empty per-system index with a node directory
// for node IDs in [0, nodes), sharing the given dense layout (which is
// immutable once built).
func newSystemIndex(nodes int, layout *rackLayout) *systemIndex {
	return &systemIndex{
		nodes:  make([]*classLists, nodes),
		racks:  make([]*classLists, len(layout.ids)),
		layout: layout,
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
	var node, rack *classLists
	if uint(f.Node) < uint(len(si.nodes)) {
		node = si.own(si.nodes[f.Node])
		si.nodes[f.Node] = node
	} else {
		if si.over == nil {
			si.over = make(map[int]*classLists)
		}
		node = si.own(si.over[f.Node])
		si.over[f.Node] = node
	}
	if r, placed := si.layout.rackOf(f.Node); placed {
		rack = si.own(si.racks[r])
		si.racks[r] = rack
	}
	for _, c := range trace.ClassesOf(f, clsBuf) {
		si.byClass[c] = append(si.byClass[c], p)
		node.add(c, p)
		if rack != nil {
			rack.add(c, p)
		}
	}
}

// own returns cl ready for si to append to: cl itself when si allocated it,
// otherwise a copy tagged with si's generation (an empty one for nil). The
// copy has its own list headers but shares each list's backing array,
// which si grows only under the extension claim it holds on the index cl
// came from.
func (si *systemIndex) own(cl *classLists) *classLists {
	if cl != nil && cl.gen == si.gen {
		return cl
	}
	cp := &classLists{gen: si.gen}
	if cl != nil {
		cp.mask, cp.lists = cl.mask, slices.Clone(cl.lists)
	}
	return cp
}

// cowCopy returns a copy of si one generation on, with its own node
// and rack directories so the copy can grow without mutating state that
// concurrent readers of si see. The timeline, the system posting lists and
// the class lists are shared: the copy clones a class list before its first
// write to it, and the caller must hold si's extension claim before any
// slice is appended to in place.
func (si *systemIndex) cowCopy() *systemIndex {
	return &systemIndex{
		fails:   si.fails,
		base:    si.base,
		tl:      si.tl,
		wide:    si.wide,
		byClass: si.byClass,
		nodes:   slices.Clone(si.nodes),
		over:    maps.Clone(si.over),
		racks:   slices.Clone(si.racks),
		layout:  si.layout,
		gen:     si.gen + 1,
	}
}

// nodeList returns the posting list of class c restricted to one node.
func (si *systemIndex) nodeList(node int, c trace.Class) []int32 {
	if uint(node) < uint(len(si.nodes)) {
		return si.nodes[node].get(c)
	}
	return si.over[node].get(c)
}

// rackList returns the posting list of class c restricted to one rack ID.
func (si *systemIndex) rackList(rack int, c trace.Class) []int32 {
	o, ok := si.layout.ordOf[rack]
	if !ok {
		return nil
	}
	return si.racks[o].get(c)
}

// get returns the posting list of class c (nil for a nil receiver or a
// class outside the dense space).
func (cl *classLists) get(c trace.Class) []int32 {
	if cl == nil || int(c) >= trace.NumClasses {
		return nil
	}
	bit := uint32(1) << c
	if cl.mask&bit == 0 {
		return nil
	}
	return cl.lists[bits.OnesCount32(cl.mask&(bit-1))]
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
// amortized O(log n) per event, plus a copy of the system's node and rack
// directories (one pointer per node and per rack) and of the class lists of
// each node and rack the batch writes to. In-place growth requires winning
// the system's one-shot extension claim, which every linear chain of
// appends (the versioned store's write path) does; late-arriving events,
// or a second Append racing for the same parent system, fall back to
// rebuilding just that system, which is slower but yields the same index
// contents. Untouched systems are always shared.
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
			ns = newSystemIndex(systemNodes(ds, id), newRackLayout(ds, id))
		case (len(old.fails) == 0 || !evs[0].Time.Before(old.fails[len(old.fails)-1].Time)) &&
			old.extended.CompareAndSwap(false, true):
			ns = old.cowCopy()
		default:
			evs = mergeByTime(old.fails, evs)
			ns = newSystemIndex(len(old.nodes), old.layout)
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
