package analysis

import (
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// SystemView is a read-only window onto one system's slice of a
// DatasetIndex: the time-sorted failure timeline and the class-partitioned
// posting lists at system, node and rack granularity. It exists so other
// packages (the correlation miner in internal/correlate) can reuse the
// posting-list index instead of building their own; everything reachable
// through a view is immutable from the caller's perspective — posting lists
// may share backing arrays that a later Append grows in place, but a view
// only ever exposes the lengths it was published with.
type SystemView struct {
	si *systemIndex
}

// SystemView returns the view over one system's timeline, and whether the
// index has an entry for it.
func (x *DatasetIndex) SystemView(id int) (SystemView, bool) {
	si := x.system(id)
	if si == nil {
		return SystemView{}, false
	}
	return SystemView{si: si}, true
}

// Events returns the number of events in the system timeline.
func (v SystemView) Events() int { return len(v.si.fails) }

// Failure returns the event at timeline position i.
func (v SystemView) Failure(i int) trace.Failure { return v.si.fails[i] }

// Time returns the time of the event at timeline position i.
func (v SystemView) Time(i int) time.Time { return v.si.fails[i].Time }

// ClassList returns the system-wide posting list of cls: timeline positions
// in ascending time (and position) order. Callers must not modify it.
func (v SystemView) ClassList(cls trace.Class) []int32 { return v.si.byClass[cls] }

// NodeClassList returns the posting list of cls restricted to one node.
func (v SystemView) NodeClassList(node int, cls trace.Class) []int32 {
	return v.si.nodeList(node, cls)
}

// RackClassList returns the posting list of cls restricted to one rack
// (events on any placed node of that rack).
func (v SystemView) RackClassList(rack int, cls trace.Class) []int32 {
	return v.si.rackList(rack, cls)
}

// Rack returns the rack of a placed node, and whether the node is placed in
// the system's layout (always false for systems without layouts).
func (v SystemView) Rack(node int) (int, bool) {
	r, ok := v.si.layout.rackOf(node)
	if !ok {
		return 0, false
	}
	return v.si.layout.ids[r], true
}

// LowerBound returns the first index of list whose event time is not before
// t — the binary search the window scans are made of.
func (v SystemView) LowerBound(list []int32, t time.Time) int {
	return v.si.lowerBound(list, t)
}
