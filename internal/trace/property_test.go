package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// randomFailure draws a structurally valid failure record.
func randomFailure(rng *rand.Rand, systems, nodes int) Failure {
	f := Failure{
		System:   1 + rng.Intn(systems),
		Node:     rng.Intn(nodes),
		Time:     ts(rng.Intn(10000)).Add(time.Duration(rng.Intn(3600)) * time.Second),
		Category: Categories[rng.Intn(len(Categories))],
		Downtime: time.Duration(rng.Intn(100000)) * time.Second,
	}
	switch f.Category {
	case Hardware:
		f.HW = HWComponents[rng.Intn(len(HWComponents))]
	case Software:
		f.SW = SWClasses[rng.Intn(len(SWClasses))]
	case Environment:
		f.Env = EnvClasses[rng.Intn(len(EnvClasses))]
	}
	return f
}

// TestFailureCSVRoundtripProperty checks the codec is lossless for
// arbitrary valid failure slices.
func TestFailureCSVRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw % 50)
		in := make([]Failure, n)
		for i := range in {
			in[i] = randomFailure(rng, 5, 64)
		}
		var buf bytes.Buffer
		if err := WriteFailures(&buf, in); err != nil {
			return false
		}
		out, err := ReadFailures(&buf)
		if err != nil {
			return false
		}
		if len(in) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestJobIndexUtilizationBounds checks utilization stays in [0,1] for
// arbitrary job sets and that busy time never exceeds the period.
func TestJobIndexUtilizationBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(60)
		jobs := make([]Job, n)
		for i := range jobs {
			start := ts(rng.Intn(5000))
			jobs[i] = Job{
				System:   1,
				ID:       int64(i),
				User:     rng.Intn(5),
				Submit:   start.Add(-time.Hour),
				Dispatch: start,
				End:      start.Add(time.Duration(rng.Intn(200)) * time.Hour),
				Procs:    4,
				Nodes:    []int{rng.Intn(8)},
			}
		}
		jx := NewJobIndex(jobs)
		period := Interval{Start: ts(0), End: ts(5000)}
		for node := 0; node < 8; node++ {
			u := jx.NodeUtilization(1, node, period)
			if u < 0 || u > 1.0000001 {
				t.Fatalf("trial %d node %d: utilization %g", trial, node, u)
			}
			busy := jx.NodeBusyTime(1, node, period)
			if busy < 0 || busy > period.Duration() {
				t.Fatalf("trial %d node %d: busy %v of %v", trial, node, busy, period.Duration())
			}
		}
	}
}

// TestSortIdempotent checks Sort is stable under repetition.
func TestSortIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	fs := make([]Failure, 100)
	for i := range fs {
		fs[i] = randomFailure(rng, 4, 8)
	}
	ds := &Dataset{Failures: fs}
	ds.Sort()
	once := append([]Failure(nil), ds.Failures...)
	ds.Sort()
	if !reflect.DeepEqual(once, ds.Failures) {
		t.Error("Sort must be idempotent")
	}
}
