package analysis

import (
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// NeutronMonth is one point of Figure 14 for one system: a calendar month's
// average neutron counts against that month's per-node failure probability.
type NeutronMonth struct {
	// Month is the first instant of the calendar month.
	Month time.Time
	// Counts is the month's average neutron counts per minute.
	Counts float64
	// Prob is the fraction of the system's nodes with at least one
	// matching failure that month.
	Prob float64
	// Failures is the raw matching failure count.
	Failures int
}

// NeutronSeries is the Figure 14 data for one system and one target.
type NeutronSeries struct {
	System int
	Target string
	Points []NeutronMonth
	// Corr is the Pearson correlation between monthly counts and monthly
	// failure probability.
	Corr stats.Correlation
}

// monthKey truncates a time to its calendar month (UTC).
func monthKey(t time.Time) time.Time {
	y, m, _ := t.UTC().Date()
	return time.Date(y, m, 1, 0, 0, 0, 0, time.UTC)
}

// NeutronCorrelation computes Figure 14 for one system: monthly average
// neutron counts against the monthly probability of a node failing with
// the target predicate (DRAM or CPU failures in the paper).
func (a *Analyzer) NeutronCorrelation(system int, target string, pred trace.Pred) NeutronSeries {
	info, _ := a.DS.System(system)
	out := NeutronSeries{System: system, Target: target}
	if info.Nodes == 0 || len(a.DS.Neutrons) == 0 {
		return out
	}

	// Monthly neutron averages.
	nSum := make(map[time.Time]float64)
	nCount := make(map[time.Time]int)
	for _, s := range a.DS.Neutrons {
		k := monthKey(s.Time)
		nSum[k] += s.CountsPerMinute
		nCount[k]++
	}

	// Monthly distinct failing nodes.
	failNodes := make(map[time.Time]map[int]bool)
	failCounts := make(map[time.Time]int)
	for _, f := range a.SystemFailures(system) {
		if !pred.Match(f) {
			continue
		}
		k := monthKey(f.Time)
		if failNodes[k] == nil {
			failNodes[k] = make(map[int]bool)
		}
		failNodes[k][f.Node] = true
		failCounts[k]++
	}

	// Walk the system's covered months.
	var months []time.Time
	for m := monthKey(info.Period.Start); m.Before(info.Period.End); m = m.AddDate(0, 1, 0) {
		months = append(months, m)
	}
	// Drop the partial first/last months to avoid exposure bias.
	if len(months) > 2 {
		months = months[1 : len(months)-1]
	}
	sort.Slice(months, func(i, j int) bool { return months[i].Before(months[j]) })

	var xs, ys []float64
	for _, m := range months {
		if nCount[m] == 0 {
			continue
		}
		counts := nSum[m] / float64(nCount[m])
		prob := float64(len(failNodes[m])) / float64(info.Nodes)
		out.Points = append(out.Points, NeutronMonth{
			Month:    m,
			Counts:   counts,
			Prob:     prob,
			Failures: failCounts[m],
		})
		xs = append(xs, counts)
		ys = append(ys, prob)
	}
	out.Corr = stats.Pearson(xs, ys)
	return out
}

// NeutronBinned groups a series' months into count bins and averages the
// failure probability per bin, the form in which Figure 14 plots the
// relationship. It returns parallel slices of bin-center counts and mean
// probabilities.
func NeutronBinned(s NeutronSeries, bins int) (centers, probs []float64) {
	if bins <= 0 || len(s.Points) == 0 {
		return nil, nil
	}
	minC, maxC := s.Points[0].Counts, s.Points[0].Counts
	for _, p := range s.Points {
		if p.Counts < minC {
			minC = p.Counts
		}
		if p.Counts > maxC {
			maxC = p.Counts
		}
	}
	if maxC == minC {
		return []float64{minC}, []float64{s.Points[0].Prob}
	}
	sums := make([]float64, bins)
	counts := make([]int, bins)
	for _, p := range s.Points {
		b := int(float64(bins) * (p.Counts - minC) / (maxC - minC))
		if b >= bins {
			b = bins - 1
		}
		sums[b] += p.Prob
		counts[b]++
	}
	for b := 0; b < bins; b++ {
		if counts[b] == 0 {
			continue
		}
		centers = append(centers, minC+(float64(b)+0.5)*(maxC-minC)/float64(bins))
		probs = append(probs, sums[b]/float64(counts[b]))
	}
	return centers, probs
}
