package simulate

import (
	"math"
	"reflect"
	"testing"

	"github.com/hpcfail/hpcfail/internal/trace"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Options{Seed: 99, Scale: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Options{Seed: 99, Scale: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Failures) != len(b.Failures) {
		t.Fatalf("failure counts differ: %d vs %d", len(a.Failures), len(b.Failures))
	}
	if !reflect.DeepEqual(a.Failures, b.Failures) {
		t.Error("same seed must give identical failures")
	}
	if !reflect.DeepEqual(a.Jobs, b.Jobs) {
		t.Error("same seed must give identical jobs")
	}
	if !reflect.DeepEqual(a.Neutrons[:100], b.Neutrons[:100]) {
		t.Error("same seed must give identical neutron series")
	}
	c, err := Generate(Options{Seed: 100, Scale: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Failures) == len(a.Failures) && reflect.DeepEqual(a.Failures, c.Failures) {
		t.Error("different seeds should differ")
	}
}

func TestGenerateValidates(t *testing.T) {
	ds, err := Generate(Options{Seed: 4, Scale: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
}

func TestGenerateNoSystems(t *testing.T) {
	if _, err := Generate(Options{Systems: []SystemConfig{}}); err == nil {
		t.Error("empty explicit catalog should fail")
	}
}

func TestDisableTriggeringReducesClustering(t *testing.T) {
	withOpts := Options{Seed: 7, Scale: 0.125}
	without := Options{Seed: 7, Scale: 0.125, DisableTriggering: true, DisableEvents: true, DisableNodeZero: true}
	dsOn, err := Generate(withOpts)
	if err != nil {
		t.Fatal(err)
	}
	dsOff, err := Generate(without)
	if err != nil {
		t.Fatal(err)
	}
	// Measure day-level clustering: fraction of failures whose node fails
	// again the next day.
	cluster := func(ds *trace.Dataset) float64 {
		byNode := make(map[trace.NodeKey][]trace.Failure)
		for _, f := range ds.Failures {
			k := trace.NodeKey{System: f.System, Node: f.Node}
			byNode[k] = append(byNode[k], f)
		}
		hits, n := 0, 0
		for _, f := range ds.Failures {
			n++
			iv := trace.Interval{Start: f.Time.Add(1), End: f.Time.Add(trace.Day)}
			for _, g := range byNode[trace.NodeKey{System: f.System, Node: f.Node}] {
				if iv.Contains(g.Time) {
					hits++
					break
				}
			}
		}
		if n == 0 {
			return 0
		}
		return float64(hits) / float64(n)
	}
	on, off := cluster(dsOn), cluster(dsOff)
	if on <= off {
		t.Errorf("triggering should increase next-day clustering: on=%.4f off=%.4f", on, off)
	}
}

func TestDisableNodeZero(t *testing.T) {
	ds, err := Generate(Options{Seed: 8, Scale: 0.125, DisableNodeZero: true})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 of system 18 should no longer dominate.
	counts := map[int]int{}
	total := 0
	var nodes int
	for _, s := range ds.Systems {
		if s.ID == 18 {
			nodes = s.Nodes
		}
	}
	for _, f := range ds.Failures {
		if f.System == 18 {
			counts[f.Node]++
			total++
		}
	}
	mean := float64(total) / float64(nodes)
	if ratio := float64(counts[0]) / mean; ratio > 8 {
		t.Errorf("node0 ratio with effect disabled = %.1f, want modest", ratio)
	}
}

func TestDisableEventsKillsEnvBursts(t *testing.T) {
	ds, err := Generate(Options{Seed: 9, Scale: 0.125, DisableEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	// Only hazard-driven env failures remain: they should be rare.
	env, total := 0, 0
	for _, f := range ds.Failures {
		total++
		if f.Category == trace.Environment {
			env++
		}
	}
	if total == 0 {
		t.Fatal("no failures")
	}
	// The login-node effect still produces hazard-driven env failures
	// (NodeZeroMult), which dominate at this small scale.
	if share := float64(env) / float64(total); share > 0.05 {
		t.Errorf("env share without events = %.3f, want small", share)
	}
}

func TestCatalogScaling(t *testing.T) {
	full := Catalog(1)
	small := Catalog(0.25)
	if len(full) != len(small) {
		t.Fatal("scale must not change system count")
	}
	for i := range full {
		if small[i].Info.Nodes > full[i].Info.Nodes {
			t.Error("scaled catalog should not grow")
		}
		if small[i].Info.ID != full[i].Info.ID {
			t.Error("IDs must be stable")
		}
		if !small[i].Info.Period.End.Equal(full[i].Info.Period.End) {
			t.Error("scaling should preserve period end")
		}
	}
	// Invalid scales fall back to 1.
	def := Catalog(-3)
	if def[0].Info.Nodes != full[0].Info.Nodes {
		t.Error("invalid scale should mean full scale")
	}
	// Groups as in the study: 2, 16, 23 are group-2.
	g2 := map[int]bool{2: true, 16: true, 23: true}
	for _, cfg := range full {
		if g2[cfg.Info.ID] != (cfg.Info.Group == trace.Group2) {
			t.Errorf("system %d group wrong", cfg.Info.ID)
		}
	}
}

func TestNeutronSeriesRange(t *testing.T) {
	g := newRNG(1)
	ns := genNeutrons(date(1996, 1, 1), date(2005, 1, 1), 6, g)
	if len(ns.samples) == 0 {
		t.Fatal("no samples")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range ns.samples {
		lo = math.Min(lo, s.CountsPerMinute)
		hi = math.Max(hi, s.CountsPerMinute)
	}
	// The Climax record spans roughly 3400-4600 counts/min.
	if lo < 2900 || hi > 5000 {
		t.Errorf("neutron range [%.0f, %.0f] outside plausible bounds", lo, hi)
	}
	if hi-lo < 500 {
		t.Errorf("solar cycle modulation too weak: range %.0f", hi-lo)
	}
	// cpuMult grows with counts.
	if ns.cpuMult(date(1996, 6, 1), 4000, 4) <= 0 {
		t.Error("cpu multiplier must be positive")
	}
	if ns.cpuMult(date(1996, 6, 1), 4000, 0) != 1 {
		t.Error("zero beta should disable the coupling")
	}
}

func TestWorkloadExclusivity(t *testing.T) {
	cfg := Catalog(0.125)[7] // system 8 with jobs
	if !cfg.HasJobs {
		t.Fatal("expected the job-log system")
	}
	p := DefaultParams()
	w := genWorkload(cfg, &p, newRNG(5))
	if len(w.jobs) == 0 {
		t.Fatal("no jobs generated")
	}
	// Compute nodes (not node 0) never run two jobs at once.
	type span struct{ s, e int64 }
	byNode := make(map[int][]span)
	for _, j := range w.jobs {
		for _, n := range j.Nodes {
			if n == 0 {
				continue
			}
			byNode[n] = append(byNode[n], span{j.Dispatch.UnixNano(), j.End.UnixNano()})
		}
	}
	overlaps := 0
	for _, spans := range byNode {
		for i := 0; i < len(spans); i++ {
			for k := i + 1; k < len(spans); k++ {
				a, b := spans[i], spans[k]
				if a.s < b.e && b.s < a.e {
					overlaps++
				}
			}
		}
	}
	if overlaps > 0 {
		t.Errorf("found %d overlapping job pairs on exclusive nodes", overlaps)
	}
	// Utilization is a valid fraction and node 0 is heavily used.
	for n, u := range w.util {
		if u < 0 || u > 1 {
			t.Errorf("node %d utilization %g out of range", n, u)
		}
	}
	if w.util[0] < 0.3 {
		t.Errorf("login node utilization %g suspiciously low", w.util[0])
	}
}

func TestWorkloadJobsWithinPeriod(t *testing.T) {
	cfg := Catalog(0.125)[9] // system 20
	p := DefaultParams()
	w := genWorkload(cfg, &p, newRNG(6))
	for _, j := range w.jobs {
		if j.Dispatch.Before(cfg.Info.Period.Start) || j.End.After(cfg.Info.Period.End) {
			t.Fatalf("job outside period: %+v", j)
		}
		if j.Dispatch.Before(j.Submit) {
			t.Fatal("dispatch before submit")
		}
		if j.Procs != len(j.Nodes)*cfg.Info.ProcsPerNode {
			t.Fatal("procs inconsistent with node count")
		}
	}
}

func TestSubSeedStability(t *testing.T) {
	if subSeed(1, 2) != subSeed(1, 2) {
		t.Error("subSeed must be deterministic")
	}
	if subSeed(1, 2) == subSeed(1, 3) || subSeed(1, 2) == subSeed(2, 2) {
		t.Error("subSeed should separate streams")
	}
	if subSeed(1, 2) < 0 {
		t.Error("subSeed must be non-negative for rand.NewSource")
	}
}

func TestRNGSamplers(t *testing.T) {
	g := newRNG(3)
	// Poisson mean check.
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Poisson(3)
	}
	mean := float64(sum) / n
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("Poisson mean = %.3f", mean)
	}
	// Large-mean branch.
	big := g.Poisson(100)
	if big < 40 || big > 180 {
		t.Errorf("Poisson(100) sample = %d", big)
	}
	if g.Poisson(0) != 0 {
		t.Error("Poisson(0) must be 0")
	}
	// Bernoulli extremes.
	if g.Bern(0) || !g.Bern(1) {
		t.Error("Bern extremes wrong")
	}
	// Zipf favors low ranks.
	z := g.Zipf(100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 5000; i++ {
		counts[z()]++
	}
	if counts[0] <= counts[50] {
		t.Error("Zipf should favor rank 0")
	}
	// PickWeighted.
	if g.PickWeighted([]float64{0, 0}) != -1 {
		t.Error("all-zero weights should return -1")
	}
	picks := make([]int, 3)
	for i := 0; i < 3000; i++ {
		picks[g.PickWeighted([]float64{1, 0, 3})]++
	}
	if picks[1] != 0 {
		t.Error("zero-weight option must never be picked")
	}
	if picks[2] < picks[0] {
		t.Error("heavier weight should win more often")
	}
}

func TestTemperatureGeneration(t *testing.T) {
	ds, err := Generate(Options{Seed: 12, Scale: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Temps) == 0 {
		t.Fatal("no temperature samples")
	}
	count40 := 0
	for _, s := range ds.Temps {
		if s.System != 20 {
			t.Fatal("only system 20 has sensors in the default catalog")
		}
		if s.Celsius < 10 || s.Celsius > 70 {
			t.Errorf("implausible temperature %.1f", s.Celsius)
		}
		if s.Celsius > 40 {
			count40++
		}
	}
	// Severe readings exist but are rare (sensor shutdown during
	// excursions).
	if count40 == 0 {
		t.Log("note: no >40C samples in this small dataset (acceptable)")
	}
	if float64(count40) > 0.01*float64(len(ds.Temps)) {
		t.Errorf(">40C share too high: %d of %d", count40, len(ds.Temps))
	}
}

func TestFailureHourUnderLoad(t *testing.T) {
	cfg := Catalog(0.125)[7]
	p := DefaultParams()
	w := genWorkload(cfg, &p, newRNG(10))
	g := newRNG(11)
	// For a busy node-day, most failure hours should land inside a job.
	// Find a day where node 1 is busy.
	for day := 0; day < w.days; day++ {
		if w.busyFrac[1*w.days+day] > 0.9 {
			inside := 0
			for i := 0; i < 200; i++ {
				h := w.failureHour(1, day, g.Float64)
				if h < 0 || h >= 24.0001 {
					t.Fatalf("hour %g out of range", h)
				}
				inside++
			}
			if inside == 0 {
				t.Error("no failure hours produced")
			}
			return
		}
	}
	t.Skip("no fully busy day found at this scale")
}
