// Package analysis is the core of the reproduction: the failure-log
// analysis toolkit of the DSN'13 study. It answers the paper's questions
// against any dataset in the trace schema — how failures correlate within
// nodes, racks and systems (Section III), which nodes fail differently
// (Section IV), how usage and users relate to failures (Sections V, VI),
// what power problems do to hardware, software and maintenance
// (Section VII), how temperature excursions and cosmic rays matter
// (Sections VIII, IX), and what a joint regression says (Section X).
//
// Every conditional probability is reported with its baseline, the factor
// increase, a 95% confidence interval and a two-sample significance test —
// the same statistical treatment the paper applies.
package analysis

import (
	"slices"
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// Analyzer bundles a dataset with the indexes the analyses need. Build one
// with New and reuse it across analyses; it is read-only after creation.
type Analyzer struct {
	// DS is the dataset under analysis.
	DS *trace.Dataset
	// Jobs is the job-log index (usable only for systems with job logs).
	Jobs *trace.JobIndex

	// didx is the dataset index every failure-timeline read answers from:
	// per-system timelines and the class-partitioned posting lists behind
	// the indexed kernels. Nil only on hand-assembled Analyzers, which
	// fall back to scans of DS.
	didx *DatasetIndex

	// maint maps nodes to sorted times of unscheduled hardware-related
	// maintenance events.
	maint map[trace.NodeKey][]time.Time
}

// New builds an Analyzer over a sorted dataset (call ds.Sort first if the
// dataset was assembled by hand).
func New(ds *trace.Dataset) *Analyzer {
	a := &Analyzer{
		DS:    ds,
		Jobs:  trace.NewJobIndex(ds.Jobs),
		didx:  NewDatasetIndex(ds),
		maint: make(map[trace.NodeKey][]time.Time),
	}
	for _, m := range ds.Maintenance {
		if m.Scheduled || !m.HardwareRelated {
			continue
		}
		k := trace.NodeKey{System: m.System, Node: m.Node}
		a.maint[k] = append(a.maint[k], m.Time)
	}
	for _, ts := range a.maint {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	}
	return a
}

// Append returns a new Analyzer over merged, which must be a.DS extended
// with the events of batch, in the order the versioned store merges them:
// a batch sorted by time with ties kept in batch order, placed after older
// events of equal time. Late batches are fine; the dataset index rebuilds
// just the systems they reach back into. Job and maintenance indexes are
// shared, since ingested failure events never carry job or maintenance
// records. The receiver stays valid and immutable.
func (a *Analyzer) Append(merged *trace.Dataset, batch []trace.Failure) *Analyzer {
	na := &Analyzer{DS: merged, Jobs: a.Jobs, maint: a.maint}
	if a.didx != nil {
		na.didx = a.didx.Append(merged, batch)
	} else {
		na.didx = NewDatasetIndex(merged)
	}
	return na
}

// DatasetIndex exposes the class-partitioned index behind the indexed
// conditional-probability kernel (nil on hand-assembled Analyzers). Callers
// must treat it as read-only.
func (a *Analyzer) DatasetIndex() *DatasetIndex { return a.didx }

// SystemFailures returns the failures of a system in time order: DS.Failures
// projected onto the system, ties in dataset order. The slice is the
// index's own timeline, shared by every reader of this and later
// snapshots, so it is read-only: callers must not modify or append to it.
// Unknown systems have none.
func (a *Analyzer) SystemFailures(id int) []trace.Failure {
	if a.didx == nil {
		return a.DS.SystemFailures(id)
	}
	if si := a.didx.system(id); si != nil {
		return si.fails
	}
	return nil
}

// NodeFailures returns the failures of one node in time order, ties in
// dataset order. The returned slice is freshly allocated.
func (a *Analyzer) NodeFailures(system, node int) []trace.Failure {
	si := a.didx.system(system)
	if si == nil {
		// A hand-assembled analyzer scans DS; an unknown system has none.
		var out []trace.Failure
		for _, f := range a.SystemFailures(system) {
			if f.Node == node {
				out = append(out, f)
			}
		}
		return out
	}
	list := si.nodeClass[nodeClassKey{node, trace.ClassAny}]
	out := make([]trace.Failure, len(list))
	for i, p := range list {
		out[i] = si.fails[p]
	}
	return out
}

// nodeAny reports whether the node has a failure inside iv: one binary
// search on its ClassAny posting list.
func (a *Analyzer) nodeAny(system, node int, iv trace.Interval) bool {
	si := a.didx.system(system)
	if si == nil {
		return slices.ContainsFunc(a.NodeFailures(system, node), func(f trace.Failure) bool { return iv.Contains(f.Time) })
	}
	list := si.nodeClass[nodeClassKey{node, trace.ClassAny}]
	i := si.lowerBound(list, iv.Start)
	return i < len(list) && si.fails[list[i]].Time.Before(iv.End)
}

// maintAny reports whether the node has an unscheduled hardware maintenance
// event inside iv.
func (a *Analyzer) maintAny(system, node int, iv trace.Interval) bool {
	ts := a.maint[trace.NodeKey{System: system, Node: node}]
	i := sort.Search(len(ts), func(i int) bool { return !ts[i].Before(iv.Start) })
	return i < len(ts) && ts[i].Before(iv.End)
}

// maintCountWindows counts, over consecutive windows of length w, the
// node-windows with at least one unscheduled hardware maintenance event,
// returning (successes, trials) across all nodes of the given systems.
func (a *Analyzer) maintCountWindows(systems []trace.SystemInfo, w time.Duration) (int, int) {
	successes, trials := 0, 0
	for _, s := range systems {
		nw := int(s.Period.Duration() / w)
		if nw <= 0 {
			continue
		}
		trials += nw * s.Nodes
		for n := 0; n < s.Nodes; n++ {
			ts := a.maint[trace.NodeKey{System: s.ID, Node: n}]
			seen := make(map[int]bool)
			for _, t := range ts {
				wi := int(t.Sub(s.Period.Start) / w)
				if wi >= 0 && wi < nw && !seen[wi] {
					seen[wi] = true
					successes++
				}
			}
		}
	}
	return successes, trials
}

// systemsOf returns the SystemInfo records for the given IDs (all systems
// when ids is empty).
func (a *Analyzer) systemsOf(ids ...int) []trace.SystemInfo {
	if len(ids) == 0 {
		return a.DS.Systems
	}
	var out []trace.SystemInfo
	for _, id := range ids {
		if s, ok := a.DS.System(id); ok {
			out = append(out, s)
		}
	}
	return out
}

// groupSystems returns the systems of one group.
func (a *Analyzer) groupSystems(g trace.Group) []trace.SystemInfo {
	return a.DS.GroupSystems(g)
}
