package correlate_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/correlate"
	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// requireSameAnomalies fails unless got and want are the same records in
// the same order, every float compared bit for bit.
func requireSameAnomalies(t *testing.T, label string, got, want []correlate.Anomaly) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d anomalies, naive %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		same := g.System == w.System && g.Node == w.Node &&
			g.Events == w.Events && g.Neighbors == w.Neighbors
		for _, f := range [][2]float64{
			{g.Score, w.Score}, {g.RateDev, w.RateDev}, {g.MixDev, w.MixDev},
			{g.BurstDev, w.BurstDev}, {g.Rate, w.Rate},
		} {
			same = same && math.Float64bits(f[0]) == math.Float64bits(f[1])
		}
		if !same {
			t.Fatalf("%s: rank %d diverged:\nfast  %+v\nnaive %+v", label, i, g, w)
		}
	}
}

// checkAnomalies pins DetectAnomalies to DetectAnomaliesNaive over an's
// dataset for k around the fleet's node count and for no, one, repeated
// and unknown system filters.
func checkAnomalies(t *testing.T, label string, an *analysis.Analyzer) {
	t.Helper()
	n := 0
	for _, s := range an.DS.Systems {
		n += s.Nodes
	}
	filters := [][]int{nil, {-7}}
	if len(an.DS.Systems) > 0 {
		first := an.DS.Systems[0].ID
		last := an.DS.Systems[len(an.DS.Systems)-1].ID
		filters = append(filters, []int{first}, []int{last, first, last})
	}
	for _, k := range []int{0, 1, 5, n - 1, n, n + 1} {
		for _, sys := range filters {
			got := correlate.DetectAnomalies(an, sys, k)
			want := correlate.DetectAnomaliesNaive(an, sys, k)
			requireSameAnomalies(t, label, got, want)
		}
	}
}

// irregularDataset builds systems that exercise every vicinity shape:
// unplaced nodes, several nodes stacked on one (rack, position), one-node
// racks, a placed node whose vicinity is empty (the all-others fallback),
// systems without layouts, single-node and zero-event systems, and layout
// entries for nodes outside [0, Nodes). Few events per node keep the rate
// and burstiness values full of ties.
func irregularDataset(seed int64) *trace.Dataset {
	rng := rand.New(rand.NewSource(seed))
	start := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	ds := &trace.Dataset{Layouts: map[int]*layout.Layout{}}
	for id := 1; id <= 6; id++ {
		nodes := 1 + rng.Intn(40)
		if id == 1 {
			nodes = 1
		}
		days := 1 + rng.Intn(400)
		ds.Systems = append(ds.Systems, trace.SystemInfo{
			ID: id, Group: trace.Group1, Nodes: nodes, ProcsPerNode: 2,
			Period: trace.Interval{Start: start, End: start.AddDate(0, 0, days)},
		})
		if id != 2 { // system 2 has no events
			for e := rng.Intn(4 * nodes); e > 0; e-- {
				ds.Failures = append(ds.Failures, trace.Failure{
					System:   id,
					Node:     rng.Intn(nodes),
					Time:     start.Add(time.Duration(rng.Int63n(int64(days) * int64(24*time.Hour)))),
					Category: trace.Categories[rng.Intn(len(trace.Categories))],
				})
			}
		}
		if id == 3 {
			continue // system 3 has no layout
		}
		lay := layout.New(id)
		racks := 1 + rng.Intn(6)
		for n := 0; n < nodes; n++ {
			if rng.Intn(5) == 0 {
				continue // unplaced
			}
			_ = lay.SetPlace(n, layout.Place{Rack: rng.Intn(racks), Position: 1 + rng.Intn(layout.PositionsPerRack)})
		}
		// A node alone in its rack at a position no other node holds:
		// its vicinity is empty, so it falls back to all others.
		if id == 4 {
			for n := 0; n < nodes; n++ {
				if p, ok := lay.Place(n); ok && p.Position == layout.PositionsPerRack {
					_ = lay.SetPlace(n, layout.Place{Rack: racks, Position: 1})
				}
			}
			_ = lay.SetPlace(0, layout.Place{Rack: racks + 1, Position: layout.PositionsPerRack})
		}
		// Out-of-range layout entries: a node past the end of the system
		// and a negative one, sharing racks with real nodes.
		_ = lay.SetPlace(nodes+rng.Intn(3), layout.Place{Rack: rng.Intn(racks), Position: 1 + rng.Intn(layout.PositionsPerRack)})
		_ = lay.SetPlace(-1-rng.Intn(3), layout.Place{Rack: rng.Intn(racks), Position: 1 + rng.Intn(layout.PositionsPerRack)})
		ds.Layouts[id] = lay
	}
	ds.Sort()
	return ds
}

// TestDetectAnomaliesMatchesNaive pins the class/merge detector to the
// frozen per-node reference bit for bit: on generated catalogs, on seeded
// irregular layouts, and on store snapshots after appends.
func TestDetectAnomaliesMatchesNaive(t *testing.T) {
	for _, seed := range []int64{3, 55} {
		checkAnomalies(t, "generated", analysis.New(genDataset(t, seed)))
	}
	for seed := int64(0); seed < 30; seed++ {
		checkAnomalies(t, "irregular", analysis.New(irregularDataset(seed)))
	}

	st, err := store.New(genDataset(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []func(*trace.Dataset) []trace.Failure{
		func(cur *trace.Dataset) []trace.Failure { return batchAfter(cur, 60, time.Minute) },
		func(cur *trace.Dataset) []trace.Failure { return batchInside(cur, 11) },
		func(cur *trace.Dataset) []trace.Failure { return batchAfter(cur, 1, time.Hour) },
	} {
		if _, err := st.Append(batch(st.Snapshot().Dataset())); err != nil {
			t.Fatal(err)
		}
		checkAnomalies(t, "after-append", st.Snapshot().Analyzer())
	}
}

// FuzzAnomaliesVicinity decodes small layouts and event logs from fuzz
// bytes and requires the fast detector to equal the naive one bit for bit,
// without panicking on any layout — including entries for nodes outside
// the system.
func FuzzAnomaliesVicinity(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 1, 1, 0, 2, 2, 1, 1, 3, 1, 2}, []byte{0, 0, 1, 3, 2, 9, 0, 7})
	f.Add(uint8(1), []byte{0, 0, 0}, []byte{0, 1})
	f.Add(uint8(9), []byte{12, 1, 3, 0, 1, 3, 250, 0, 1}, []byte{})
	f.Fuzz(func(t *testing.T, nodes uint8, places, events []byte) {
		n := 1 + int(nodes)%24
		start := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
		ds := &trace.Dataset{
			Systems: []trace.SystemInfo{{
				ID: 1, Group: trace.Group1, Nodes: n, ProcsPerNode: 2,
				Period: trace.Interval{Start: start, End: start.AddDate(0, 0, 30)},
			}},
			Layouts: map[int]*layout.Layout{},
		}
		if len(places) > 0 {
			lay := layout.New(1)
			for i := 0; i+2 < len(places); i += 3 {
				node := int(int8(places[i])) // negative and past-the-end nodes too
				_ = lay.SetPlace(node, layout.Place{Rack: int(places[i+1] % 8), Position: 1 + int(places[i+2])%layout.PositionsPerRack})
			}
			ds.Layouts[1] = lay
		}
		for i := 0; i+1 < len(events) && i < 512; i += 2 {
			ds.Failures = append(ds.Failures, trace.Failure{
				System:   1,
				Node:     int(events[i]) % n,
				Time:     start.Add(time.Duration(events[i+1]) * 3 * time.Hour),
				Category: trace.Categories[int(events[i])%len(trace.Categories)],
			})
		}
		ds.Sort()
		an := analysis.New(ds)
		for _, k := range []int{0, 3} {
			requireSameAnomalies(t, "fuzz", correlate.DetectAnomalies(an, nil, k), correlate.DetectAnomaliesNaive(an, nil, k))
		}
	})
}
