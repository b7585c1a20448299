package store_test

import (
	"sync"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// TestConcurrentReadersDuringAppend races N reader goroutines — issuing
// CondProb and risk TopK against pinned snapshots — with a writer appending
// batches (including late arrivals that force the rebuild path). Run under
// -race by the chaos gate, it pins the store's central promise: readers
// never block, never tear, and see monotonically increasing versions.
func TestConcurrentReadersDuringAppend(t *testing.T) {
	ds := genDataset(t, 11)
	st, err := store.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := risk.FromAnalyzer(st.Snapshot().Analyzer(), trace.Week)
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		batches = 30
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			scopes := []analysis.Scope{analysis.ScopeNode, analysis.ScopeRack, analysis.ScopeSystem}
			var lastVersion uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Snapshot()
				if v := snap.Version(); v < lastVersion {
					errs <- &versionRegression{from: lastVersion, to: v}
					return
				} else {
					lastVersion = v
				}
				a := snap.Analyzer()
				sys := snap.Dataset().Systems
				res := a.CondProb(sys, trace.CategoryPred(trace.Hardware), nil, trace.Day, scopes[i%len(scopes)])
				if res.Window != trace.Day {
					errs <- &versionRegression{from: snap.Version(), to: 0}
					return
				}
				at := snap.Dataset().Systems[0].Period.End
				engine.TopK(5, at)
			}
		}(r)
	}

	for i := 0; i < batches; i++ {
		var batch []trace.Failure
		if i%7 == 6 {
			batch = batchInside(st.Snapshot().Dataset(), 3)
		} else {
			batch = batchAfter(st.Snapshot().Dataset(), 8, time.Second)
		}
		if _, err := st.Append(batch); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		for _, f := range batch {
			if err := engine.Observe(f); err != nil {
				t.Fatalf("observe: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := st.Version(), uint64(1+batches); got != want {
		t.Errorf("final version = %d, want %d", got, want)
	}
}

type versionRegression struct{ from, to uint64 }

func (e *versionRegression) Error() string {
	return "snapshot version regressed or result torn"
}

// TestRebuildFallbackUnderConcurrentSnapshotReaders drives the out-of-order
// append path exclusively — every batch lands mid-period, so every append
// re-merges the log and rebuilds the touched systems' indexes — while
// readers hold pinned snapshots across those rebuilds. Run under -race by the chaos gate, it
// pins snapshot immutability through the rebuild path specifically: a
// pinned snapshot's version, event count and query answers must not change
// no matter how many rebuilds the store performs behind it.
func TestRebuildFallbackUnderConcurrentSnapshotReaders(t *testing.T) {
	ds := genDataset(t, 17)
	st, err := store.New(ds)
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		batches = 24
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	hw := trace.CategoryPred(trace.Hardware)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Pin one snapshot, query it, then re-check it after the
				// writer has had a chance to rebuild underneath.
				snap := st.Snapshot()
				v, n := snap.Version(), snap.Events()
				sys := snap.Dataset().Systems
				first := snap.Analyzer().CondProb(sys, hw, nil, trace.Day, analysis.ScopeSystem)
				again := snap.Analyzer().CondProb(sys, hw, nil, trace.Day, analysis.ScopeSystem)
				if snap.Version() != v || snap.Events() != n || !bitEqual(first, again) {
					errs <- &versionRegression{from: v, to: snap.Version()}
					return
				}
			}
		}()
	}

	for i := 0; i < batches; i++ {
		if _, err := st.Append(batchInside(st.Snapshot().Dataset(), 4)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := st.Appends(); got != batches {
		t.Errorf("Appends = %d, want %d", got, batches)
	}
	// Every batch was out of order, so every append must have rebuilt.
	if got := st.Rebuilds(); got != batches {
		t.Errorf("Rebuilds = %d, want %d (all batches out of order)", got, batches)
	}
}
