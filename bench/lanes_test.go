package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// Writes ride lane 0 only, in stream order; reads spread over both lanes;
// every op runs once.
func TestLaneDiscipline(t *testing.T) {
	w, _ := workloadByName("ingest")
	ops := newStream(testInputs(50), w, 3).take(400)
	var mu sync.Mutex
	var writeOrder []int
	g := &generator{
		lanes:      lanes,
		now:        time.Now,
		sleepUntil: func(context.Context, time.Time) error { return nil },
		do: func(_ context.Context, lane int, o *op, r *result) {
			if o.kind == kWrite {
				mu.Lock()
				writeOrder = append(writeOrder, o.seq)
				mu.Unlock()
			}
			time.Sleep(time.Duration(o.seq%4) * 20 * time.Microsecond)
			r.status = 200
		},
	}
	res := g.run(context.Background(), ops, false)
	var readLanes [lanes]int
	for i, o := range ops {
		if res[i].done.IsZero() {
			t.Fatalf("op %d never ran", i)
		}
		if o.kind == kWrite && res[i].lane != 0 {
			t.Fatalf("write %d ran on lane %d", o.seq, res[i].lane)
		}
		if o.kind != kWrite {
			readLanes[res[i].lane]++
		}
	}
	for i := 1; i < len(writeOrder); i++ {
		if writeOrder[i] <= writeOrder[i-1] {
			t.Fatalf("write %d ran after write %d", writeOrder[i], writeOrder[i-1])
		}
	}
	if readLanes[0] == 0 || readLanes[1] == 0 {
		t.Errorf("reads per lane %v: both lanes should serve reads", readLanes)
	}
}

// fakeClock advances only when the single lane sleeps or a request takes
// time, so an open-loop run is exactly reproducible.
type fakeClock struct{ t time.Time }

// An open-loop op that waits behind a slow predecessor is charged its wait:
// latency runs from when it was due, not from when it was sent.
func TestCoordinatedOmissionCorrection(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	var ops []op
	for i := 0; i < 4; i++ {
		ops = append(ops, op{seq: i, kind: kRiskNode, at: time.Duration(i) * 10 * time.Millisecond})
	}
	g := &generator{
		lanes: 1,
		now:   func() time.Time { return fc.t },
		sleepUntil: func(_ context.Context, t time.Time) error {
			if t.After(fc.t) {
				fc.t = t
			}
			return nil
		},
		do: func(_ context.Context, _ int, _ *op, r *result) {
			fc.t = fc.t.Add(25 * time.Millisecond)
			r.status = 200
		},
	}
	res := g.run(context.Background(), ops, true)
	var lat []time.Duration
	for i, want := range []time.Duration{25, 40, 55, 70} {
		if got := res[i].latency(); got != want*time.Millisecond {
			t.Errorf("op %d latency %v, want %v", i, got, want*time.Millisecond)
		}
		if got, want := res[i].queueWait(), time.Duration(i)*15*time.Millisecond; got != want {
			t.Errorf("op %d queue wait %v, want %v", i, got, want)
		}
		if got := res[i].done.Sub(res[i].sent); got != 25*time.Millisecond {
			t.Errorf("op %d service time %v", i, got)
		}
		lat = append(lat, res[i].latency())
	}
	if p50, _ := quantile(sortedMs(lat), 0.5); p50 != 40 {
		t.Errorf("p50 %v ms, want 40", p50)
	}
}

func TestQuantileNeedsSamplesBeyond(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	if got, ok := quantile(v, 0.9); got != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v (enough %v), want 90 with 10 beyond", got, ok)
	}
	if got, ok := quantile(v, 0.99); got != 99 || ok {
		t.Errorf("p99 of 1..100 = %v (enough %v): one sample beyond is not enough", got, ok)
	}
	if got, ok := quantile(v[:1], 0.5); got != 1 || !ok {
		t.Errorf("median of one sample = %v, %v", got, ok)
	}
}
