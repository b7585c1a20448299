package trace

import (
	"testing"
	"time"
)

func TestPredHelpers(t *testing.T) {
	f := Failure{Category: Hardware, HW: Fan}
	if !HWPred(Fan).Match(f) || HWPred(CPU).Match(f) {
		t.Error("HWPred wrong")
	}
	if !CategoryPred(Hardware).Match(f) || CategoryPred(Software).Match(f) {
		t.Error("CategoryPred wrong")
	}
	sw := Failure{Category: Software, SW: PFS}
	if !SWPred(PFS).Match(sw) || SWPred(DST).Match(sw) {
		t.Error("SWPred wrong")
	}
	env := Failure{Category: Environment, Env: Chillers}
	if !EnvPred(Chillers).Match(env) || EnvPred(UPS).Match(env) {
		t.Error("EnvPred wrong")
	}
	var nilPred Pred
	if !nilPred.Match(f) {
		t.Error("nil predicate must match everything")
	}
}

func jobFixture() []Job {
	return []Job{
		{System: 8, ID: 1, User: 1, Submit: ts(0), Dispatch: ts(1), End: ts(5), Procs: 4, Nodes: []int{0, 1}},
		{System: 8, ID: 2, User: 2, Submit: ts(2), Dispatch: ts(3), End: ts(7), Procs: 4, Nodes: []int{1}},
		{System: 8, ID: 3, User: 1, Submit: ts(8), Dispatch: ts(10), End: ts(20), Procs: 4, Nodes: []int{2}},
	}
}

func TestJobIndexCountsAndJobs(t *testing.T) {
	jx := NewJobIndex(jobFixture())
	if jx.NodeJobCount(8, 1) != 2 || jx.NodeJobCount(8, 0) != 1 || jx.NodeJobCount(8, 5) != 0 {
		t.Error("job counts wrong")
	}
	jobs := jx.NodeJobs(8, 1)
	if len(jobs) != 2 || !jobs[0].Dispatch.Before(jobs[1].Dispatch) {
		t.Error("node jobs should be dispatch ordered")
	}
}

func TestJobIndexBusyTimeMergesOverlaps(t *testing.T) {
	jx := NewJobIndex(jobFixture())
	period := Interval{Start: ts(0), End: ts(10)}
	// Node 1: job1 [1,5) and job2 [3,7) merge into [1,7) = 6h.
	if busy := jx.NodeBusyTime(8, 1, period); busy != 6*time.Hour {
		t.Errorf("busy = %v, want 6h", busy)
	}
	if u := jx.NodeUtilization(8, 1, period); u != 0.6 {
		t.Errorf("utilization = %g, want 0.6", u)
	}
	// Clipping to the period.
	short := Interval{Start: ts(0), End: ts(4)}
	if busy := jx.NodeBusyTime(8, 1, short); busy != 3*time.Hour {
		t.Errorf("clipped busy = %v, want 3h", busy)
	}
	// Idle node.
	if u := jx.NodeUtilization(8, 7, period); u != 0 {
		t.Errorf("idle utilization = %g", u)
	}
	// Degenerate period.
	if u := jx.NodeUtilization(8, 1, Interval{Start: ts(5), End: ts(5)}); u != 0 {
		t.Error("zero-length period utilization should be 0")
	}
}

func TestJobIndexBusyAt(t *testing.T) {
	jx := NewJobIndex(jobFixture())
	if !jx.BusyAt(8, 0, ts(2)) {
		t.Error("node 0 busy at ts(2)")
	}
	if jx.BusyAt(8, 0, ts(6)) {
		t.Error("node 0 idle at ts(6)")
	}
	// Dispatch boundary inclusive, end exclusive.
	if !jx.BusyAt(8, 2, ts(10)) {
		t.Error("dispatch instant should count as busy")
	}
	if jx.BusyAt(8, 2, ts(20)) {
		t.Error("end instant should not count as busy")
	}
}
