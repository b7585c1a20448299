package analysis

import (
	"math"
	"sort"

	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// InterArrivalResult summarizes the distribution of times between
// consecutive failures. The paper contrasts its conditional-probability
// approach with the statistical-modeling tradition (fitting inter-arrival
// distributions, autocorrelation analysis — Section I); this module
// provides those classical views so both styles run on the same data.
type InterArrivalResult struct {
	// Scope describes what the gaps are between: "node" gaps separate
	// consecutive failures of the same node; "system" gaps separate
	// consecutive failures anywhere in a system.
	Scope string
	// N is the number of gaps.
	N int
	// Summary holds the five-number summary of the gaps in hours.
	Summary stats.Summary
	// CV is the coefficient of variation: 1 for a Poisson process,
	// greater when failures cluster (the paper's key premise).
	CV float64
	// ExpFitKS tests the gaps against the exponential distribution with
	// the sample mean: rejected when failures are correlated.
	ExpFitKS stats.TestResult
	// Weibull is the maximum-likelihood Weibull fit of the gaps, the
	// model the prior-work tradition uses (Schroeder & Gibson, DSN'06): a
	// shape below 1 means a decreasing hazard, i.e. clustered failures.
	Weibull stats.Weibull
	// WeibullOK reports whether the fit converged.
	WeibullOK bool
	// DailyAutocorr holds lag-1..lag-7 autocorrelations of the daily
	// failure-count series.
	DailyAutocorr []float64
}

// InterArrivals computes gap statistics at node scope (gaps within each
// node's failure sequence, pooled) over the given systems.
func (a *Analyzer) InterArrivals(systems []trace.SystemInfo) InterArrivalResult {
	var gaps []float64
	for _, s := range systems {
		for n := 0; n < s.Nodes; n++ {
			fs := a.NodeFailures(s.ID, n)
			for i := 1; i < len(fs); i++ {
				gaps = append(gaps, fs[i].Time.Sub(fs[i-1].Time).Hours())
			}
		}
	}
	return a.interArrivalStats("node", gaps, systems)
}

// SystemInterArrivals computes gap statistics at system scope.
func (a *Analyzer) SystemInterArrivals(systems []trace.SystemInfo) InterArrivalResult {
	var gaps []float64
	for _, s := range systems {
		fs := a.SystemFailures(s.ID)
		for i := 1; i < len(fs); i++ {
			gaps = append(gaps, fs[i].Time.Sub(fs[i-1].Time).Hours())
		}
	}
	return a.interArrivalStats("system", gaps, systems)
}

func (a *Analyzer) interArrivalStats(scope string, gaps []float64, systems []trace.SystemInfo) InterArrivalResult {
	out := InterArrivalResult{Scope: scope, N: len(gaps)}
	if len(gaps) == 0 {
		return out
	}
	sort.Float64s(gaps)
	out.Summary = stats.Summarize(gaps)
	out.CV = stats.CoefficientOfVariation(gaps)
	mean := out.Summary.Mean
	if mean > 0 {
		exp := stats.Exponential{Rate: 1 / mean}
		if r, err := stats.KSOneSample(gaps, exp.CDF); err == nil {
			out.ExpFitKS = r
		}
	}
	if w, err := stats.FitWeibull(gaps); err == nil {
		out.Weibull = w
		out.WeibullOK = true
	}
	// Daily counts pooled over systems for the autocorrelation view.
	counts := a.DailyCounts(systems)
	for lag := 1; lag <= 7 && lag < len(counts); lag++ {
		out.DailyAutocorr = append(out.DailyAutocorr, stats.AutoCorrelation(counts, lag))
	}
	return out
}

// DailyCounts returns the pooled daily failure-count series over the given
// systems, aligned to the earliest period start.
func (a *Analyzer) DailyCounts(systems []trace.SystemInfo) []float64 {
	if len(systems) == 0 {
		return nil
	}
	start := systems[0].Period.Start
	end := systems[0].Period.End
	want := make(map[int]bool, len(systems))
	for _, s := range systems {
		want[s.ID] = true
		if s.Period.Start.Before(start) {
			start = s.Period.Start
		}
		if s.Period.End.After(end) {
			end = s.Period.End
		}
	}
	days := int(end.Sub(start).Hours()/24) + 1
	if days <= 0 {
		return nil
	}
	counts := make([]float64, days)
	for _, f := range a.DS.Failures {
		if !want[f.System] {
			continue
		}
		d := int(f.Time.Sub(start).Hours() / 24)
		if d >= 0 && d < days {
			counts[d]++
		}
	}
	return counts
}

// DowntimeStats summarizes repair times (downtime) by failure category —
// the availability view of the outage log.
type DowntimeStats struct {
	Category trace.Category
	// N is the number of failures with recorded downtime.
	N int
	// Summary of downtime hours.
	Summary stats.Summary
	// TotalHours is the category's total downtime.
	TotalHours float64
}

// DowntimeByCategory computes repair-time statistics for each category
// over the given systems. Failures without recorded downtime are skipped.
func (a *Analyzer) DowntimeByCategory(systems []trace.SystemInfo) []DowntimeStats {
	want := make(map[int]bool, len(systems))
	for _, s := range systems {
		want[s.ID] = true
	}
	byCat := make(map[trace.Category][]float64)
	for _, f := range a.DS.Failures {
		if !want[f.System] || f.Downtime <= 0 {
			continue
		}
		byCat[f.Category] = append(byCat[f.Category], f.Downtime.Hours())
	}
	out := make([]DowntimeStats, 0, len(trace.Categories))
	for _, c := range trace.Categories {
		hours := byCat[c]
		ds := DowntimeStats{Category: c, N: len(hours)}
		if len(hours) > 0 {
			ds.Summary = stats.Summarize(hours)
			ds.TotalHours = stats.Sum(hours)
		}
		out = append(out, ds)
	}
	return out
}

// Availability returns the fraction of node-time the given systems were up,
// computed from recorded downtimes: 1 - sum(downtime) / total node-hours.
func (a *Analyzer) Availability(systems []trace.SystemInfo) float64 {
	var down, total float64
	want := make(map[int]bool, len(systems))
	for _, s := range systems {
		want[s.ID] = true
		total += float64(s.Nodes) * s.Period.Duration().Hours()
	}
	if total == 0 {
		return math.NaN()
	}
	for _, f := range a.DS.Failures {
		if want[f.System] {
			down += f.Downtime.Hours()
		}
	}
	av := 1 - down/total
	if av < 0 {
		return 0
	}
	return av
}

// MTBFHours returns the pooled mean time between failures per node, in
// hours: total node-hours divided by failure count.
func (a *Analyzer) MTBFHours(systems []trace.SystemInfo) float64 {
	var nodeHours float64
	count := 0
	want := make(map[int]bool, len(systems))
	for _, s := range systems {
		want[s.ID] = true
		nodeHours += float64(s.Nodes) * s.Period.Duration().Hours()
	}
	for _, f := range a.DS.Failures {
		if want[f.System] {
			count++
		}
	}
	if count == 0 {
		return math.Inf(1)
	}
	return nodeHours / float64(count)
}
