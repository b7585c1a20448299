package hpcfail_test

// The benchmark harness regenerates every table and figure of the paper
// (one benchmark per experiment ID; see DESIGN.md's experiment index) over
// a shared synthetic dataset, plus ablation benchmarks for the design
// choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each Benchmark<ID> measures the cost of regenerating that experiment;
// the first iteration also prints the paper-vs-measured metric lines, so
// `go test -bench . -v` doubles as a reproduction report.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/hpcfail/hpcfail"
)

// benchScale keeps dataset generation around a second while leaving enough
// events for every experiment to be populated.
const benchScale = 0.5

var (
	benchOnce  sync.Once
	benchSuite *hpcfail.ExperimentSuite
	benchErr   error
)

func suite(b *testing.B) *hpcfail.ExperimentSuite {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := hpcfail.Generate(hpcfail.GenerateOptions{Seed: 1, Scale: benchScale})
		if err != nil {
			benchErr = err
			return
		}
		benchSuite = hpcfail.NewExperimentSuite(ds)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

// benchExperiment runs one experiment per iteration and prints its metrics
// once in verbose mode.
func benchExperiment(b *testing.B, id string) {
	s := suite(b)
	printed := false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if !printed && testing.Verbose() {
			printed = true
			b.Logf("\n%s", res.Render())
		}
	}
}

// One benchmark per paper table/figure (see DESIGN.md experiment index).

func BenchmarkSec3A1(b *testing.B)    { benchExperiment(b, "s3a1") }
func BenchmarkFig1a(b *testing.B)     { benchExperiment(b, "fig1a") }
func BenchmarkFig1b(b *testing.B)     { benchExperiment(b, "fig1b") }
func BenchmarkSec3A4(b *testing.B)    { benchExperiment(b, "s3a4") }
func BenchmarkSec3B(b *testing.B)     { benchExperiment(b, "s3b") }
func BenchmarkFig2a(b *testing.B)     { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)     { benchExperiment(b, "fig2b") }
func BenchmarkSec3C(b *testing.B)     { benchExperiment(b, "s3c") }
func BenchmarkFig3(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkSec7Intro(b *testing.B) { benchExperiment(b, "s7") }
func BenchmarkFig10(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkSec7A2(b *testing.B)    { benchExperiment(b, "s7a2") }
func BenchmarkFig11(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkSec8A(b *testing.B)     { benchExperiment(b, "s8a") }
func BenchmarkFig13(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkTableI(b *testing.B)    { benchExperiment(b, "tableI") }
func BenchmarkTableII(b *testing.B)   { benchExperiment(b, "tableII") }
func BenchmarkTableIII(b *testing.B)  { benchExperiment(b, "tableIII") }

// In-text analyses and extensions.

func BenchmarkSec3A3(b *testing.B)       { benchExperiment(b, "s3a3") }
func BenchmarkSec4C(b *testing.B)        { benchExperiment(b, "s4c") }
func BenchmarkInterArrival(b *testing.B) { benchExperiment(b, "ext-ia") }
func BenchmarkDowntime(b *testing.B)     { benchExperiment(b, "ext-downtime") }
func BenchmarkPrediction(b *testing.B)   { benchExperiment(b, "ext-predict") }
func BenchmarkOverview(b *testing.B)     { benchExperiment(b, "ext-overview") }
func BenchmarkLatency(b *testing.B)      { benchExperiment(b, "ext-latency") }

// BenchmarkGenerate measures the substrate itself: producing the full
// synthetic dataset.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := hpcfail.Generate(hpcfail.GenerateOptions{Seed: int64(i + 1), Scale: 0.25})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Failures) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// ---- Ablations (DESIGN.md section 6) --------------------------------

// BenchmarkAblationNoTriggering shows the self-exciting generator is what
// creates most of the paper's correlations: with triggering, events and the
// login-node effect disabled, the weekly conditional-over-baseline factor
// drops from ~14X to the heterogeneity floor (~5X) produced by per-node
// frailty alone — the "unlucky node" statistical effect the paper discusses
// in Section IV.C.
func BenchmarkAblationNoTriggering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := hpcfail.Generate(hpcfail.GenerateOptions{
			Seed: 2, Scale: 0.25,
			DisableTriggering: true, DisableEvents: true, DisableNodeZero: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		a := hpcfail.NewAnalyzer(ds)
		r := a.CondProb(ds.GroupSystems(hpcfail.Group1), nil, nil, hpcfail.Week, hpcfail.ScopeNode)
		b.ReportMetric(r.Factor(), "weekly-factor")
	}
}

// BenchmarkAblationBaselineEstimator compares the tiled-window baseline
// estimator against a per-node exposure (Poisson) approximation — the
// design choice behind every "random week" number.
func BenchmarkAblationBaselineEstimator(b *testing.B) {
	s := suite(b)
	ds := s.A.DS
	g1 := ds.GroupSystems(hpcfail.Group1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tiled := s.A.BaselineNodeProb(g1, hpcfail.Week, nil)
		b.ReportMetric(tiled.P(), "tiled-baseline")
	}
}

// BenchmarkAblationOverdispersion quantifies why the paper fits a negative
// binomial next to the Poisson: on the per-node failure counts the NB's
// AIC should be materially lower (the counts are overdispersed).
func BenchmarkAblationOverdispersion(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jr, err := s.A.JointRegression(20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(jr.Poisson.AIC()-jr.NegBinom.AIC(), "aic-gain-nb")
	}
}

// BenchmarkAblationIndexScan compares a window query over the dataset
// index's per-node failure list (a binary search) against a naive full scan
// of the system's failures.
func BenchmarkAblationIndexScan(b *testing.B) {
	s := suite(b)
	ds := s.A.DS
	sys := ds.Systems[len(ds.Systems)-1]
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			total := 0
			for n := 0; n < sys.Nodes; n += 7 {
				iv := hpcfail.Interval{Start: sys.Period.Start, End: sys.Period.Start.Add(hpcfail.Month)}
				fs := s.A.NodeFailures(sys.ID, n)
				j := sort.Search(len(fs), func(j int) bool { return !fs[j].Time.Before(iv.Start) })
				if j < len(fs) && fs[j].Time.Before(iv.End) {
					total++
				}
			}
			_ = total
		}
	})
	b.Run("naive", func(b *testing.B) {
		failures := ds.SystemFailures(sys.ID)
		for i := 0; i < b.N; i++ {
			total := 0
			for n := 0; n < sys.Nodes; n += 7 {
				iv := hpcfail.Interval{Start: sys.Period.Start, End: sys.Period.Start.Add(hpcfail.Month)}
				for _, f := range failures {
					if f.Node == n && iv.Contains(f.Time) {
						total++
						break
					}
				}
			}
			_ = total
		}
	})
}

// BenchmarkReportAll measures the full reproduction sweep.
func BenchmarkReportAll(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := s.RunAll()
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.ID, r.Err)
			}
		}
		if i == 0 && testing.Verbose() {
			b.Logf("ran %d experiments", len(results))
		}
	}
}

// Example of using the report output programmatically.
func ExampleExperimentSuite() {
	ds, err := hpcfail.Generate(hpcfail.GenerateOptions{Seed: 1, Scale: 0.1})
	if err != nil {
		fmt.Println(err)
		return
	}
	s := hpcfail.NewExperimentSuite(ds)
	res, err := s.Run("s3a1")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.ID, res.Err == nil)
	// Output: s3a1 true
}
