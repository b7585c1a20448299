package main

import (
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// testInputs is a small synthetic split catalog: two systems and a tail of
// n hourly events.
func testInputs(n int) *inputs {
	split := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	end := split.Add(30 * 24 * time.Hour)
	period := trace.Interval{Start: split.AddDate(-1, 0, 0), End: end}
	in := &inputs{
		systems: []trace.SystemInfo{
			{ID: 7, Group: trace.Group1, Nodes: 16, ProcsPerNode: 4, Period: period},
			{ID: 9, Group: trace.Group2, Nodes: 4, ProcsPerNode: 128, Period: period},
		},
		split: split,
		end:   end,
	}
	for i := 0; i < n; i++ {
		in.tail = append(in.tail, trace.Failure{
			System: []int{7, 9}[i%2], Node: i % 4, Time: split.Add(time.Duration(i+1) * time.Hour),
			Category: trace.Hardware, HW: trace.Memory,
		})
	}
	return in
}

func TestStreamDeterminism(t *testing.T) {
	in := testInputs(40)
	for _, w := range workloads {
		a := digestOps(prefixOps(in, w, 1, 600))
		if b := digestOps(prefixOps(in, w, 1, 600)); a != b {
			t.Errorf("%s: same seed, digests %s and %s", w.name, a, b)
		}
		if b := digestOps(prefixOps(in, w, 2, 600)); a == b {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
	}
	if digestOps(prefixOps(in, workloads[1], 1, 600)) == digestOps(prefixOps(in, workloads[3], 1, 600)) {
		t.Error("live and fleet share a stream")
	}
}

// The pinned prefix must be exactly what a run sends first, however long
// the run's steady phase is.
func TestPrefixMatchesRun(t *testing.T) {
	in := testInputs(40)
	for _, w := range workloads {
		s := newStream(in, w, 5)
		ops := append(s.warmup(), s.until(2*time.Second)...)
		if got, want := digestOps(ops), digestOps(prefixOps(in, w, 5, len(ops))); got != want {
			t.Errorf("%s: run digest %s, prefix digest %s", w.name, got, want)
		}
	}
}

func TestStreamTimeOrderAndTailRecycling(t *testing.T) {
	in := testInputs(5)
	w, _ := workloadByName("ingest")
	s := newStream(in, w, 3)
	ops := append(s.warmup(), s.until(5*time.Second)...)
	ops = append(ops, s.take(200)...)

	shift := in.end.Sub(in.split)
	var events []trace.Failure
	var lastAt time.Duration
	var vnow time.Time
	for i, o := range ops {
		if o.seq != i {
			t.Fatalf("op %d has seq %d", i, o.seq)
		}
		if o.at < lastAt && o.at != 0 {
			t.Fatalf("op %d arrives at %v, before %v", i, o.at, lastAt)
		}
		if o.at != 0 {
			lastAt = o.at
		}
		switch o.kind {
		case kWrite:
			if len(o.events) != batchEvents {
				t.Fatalf("write %d carries %d events", i, len(o.events))
			}
			events = append(events, o.events...)
			vnow = o.events[len(o.events)-1].Time
		case kRiskNode, kRiskTop:
			if want := vnow.Truncate(time.Second); !o.q.at.Equal(want) && !(vnow.IsZero() && o.q.at.Equal(in.split)) {
				t.Fatalf("risk read %d scores at %v, newest event %v", i, o.q.at, vnow)
			}
		}
	}
	if len(events) < 4*len(in.tail) {
		t.Fatalf("only %d events: the tail was not recycled", len(events))
	}
	for i, f := range events {
		want := in.tail[i%len(in.tail)]
		want.Time = want.Time.Add(time.Duration(i/len(in.tail)) * shift)
		if f != want {
			t.Fatalf("event %d = %+v, want %+v", i, f, want)
		}
		if i > 0 && !f.Time.After(events[i-1].Time) {
			t.Fatalf("event %d at %v does not follow %v", i, f.Time, events[i-1].Time)
		}
	}
}

func TestHotSetIsSmallAndCoversScopes(t *testing.T) {
	w, _ := workloadByName("dashboard")
	s := newStream(testInputs(40), w, 1)
	paths := map[string]bool{}
	scopesSeen := map[string]bool{}
	for _, o := range s.take(3000) {
		if o.kind.class() == cAnalysis {
			paths[o.path] = true
			if o.kind == kCondProb {
				scopesSeen[o.q.scope.String()] = true
			}
		}
	}
	if n := len(paths); n > hotCondProb+hotCorrelations+hotAnomalies {
		t.Errorf("dashboard draws %d distinct analysis keys", n)
	}
	if len(scopesSeen) != 3 {
		t.Errorf("hot condprob keys cover scopes %v", scopesSeen)
	}
}
