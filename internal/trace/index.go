package trace

import (
	"sort"
	"time"
)

// NodeKey identifies one node of one system.
type NodeKey struct {
	System int
	Node   int
}

// JobIndex provides per-node interval queries over a job log: how many jobs
// touched a node, and whether a node was busy at a given time. It backs the
// usage analyses of Sections V and X.
type JobIndex struct {
	jobs   []Job
	byNode map[NodeKey][]int // job indices sorted by dispatch time
}

// NewJobIndex builds an index over jobs, which should be sorted by submit
// time; per-node lists are re-sorted by dispatch time.
func NewJobIndex(jobs []Job) *JobIndex {
	jx := &JobIndex{jobs: jobs, byNode: make(map[NodeKey][]int)}
	for i, j := range jobs {
		for _, n := range j.Nodes {
			k := NodeKey{j.System, n}
			jx.byNode[k] = append(jx.byNode[k], i)
		}
	}
	for _, idxs := range jx.byNode {
		sort.Slice(idxs, func(a, b int) bool {
			return jx.jobs[idxs[a]].Dispatch.Before(jx.jobs[idxs[b]].Dispatch)
		})
	}
	return jx
}

// NodeJobCount returns the number of jobs ever assigned to the node — the
// paper's num_jobs usage metric.
func (jx *JobIndex) NodeJobCount(system, node int) int {
	return len(jx.byNode[NodeKey{system, node}])
}

// NodeJobs returns the jobs assigned to a node ordered by dispatch time.
func (jx *JobIndex) NodeJobs(system, node int) []Job {
	idxs := jx.byNode[NodeKey{system, node}]
	out := make([]Job, len(idxs))
	for i, j := range idxs {
		out[i] = jx.jobs[j]
	}
	return out
}

// NodeBusyTime returns the total time within period during which at least
// one job was assigned to the node (overlapping jobs are merged), the
// numerator of the paper's utilization metric.
func (jx *JobIndex) NodeBusyTime(system, node int, period Interval) time.Duration {
	idxs := jx.byNode[NodeKey{system, node}]
	var busy time.Duration
	var curStart, curEnd time.Time
	have := false
	flush := func() {
		if have {
			busy += curEnd.Sub(curStart)
			have = false
		}
	}
	for _, i := range idxs {
		j := jx.jobs[i]
		s, e := j.Dispatch, j.End
		if s.Before(period.Start) {
			s = period.Start
		}
		if e.After(period.End) {
			e = period.End
		}
		if !e.After(s) {
			continue
		}
		if have && !s.After(curEnd) {
			if e.After(curEnd) {
				curEnd = e
			}
			continue
		}
		flush()
		curStart, curEnd = s, e
		have = true
	}
	flush()
	return busy
}

// NodeUtilization returns the fraction of period during which the node was
// busy, in [0,1] — the paper's util metric ("a node is utilized if at least
// one job is currently assigned to it").
func (jx *JobIndex) NodeUtilization(system, node int, period Interval) float64 {
	total := period.Duration()
	if total <= 0 {
		return 0
	}
	return float64(jx.NodeBusyTime(system, node, period)) / float64(total)
}

// BusyAt reports whether the node had at least one job assigned at time t.
func (jx *JobIndex) BusyAt(system, node int, t time.Time) bool {
	idxs := jx.byNode[NodeKey{system, node}]
	for _, i := range idxs {
		j := jx.jobs[i]
		if j.Dispatch.After(t) {
			break
		}
		if !t.Before(j.Dispatch) && t.Before(j.End) {
			return true
		}
	}
	return false
}
