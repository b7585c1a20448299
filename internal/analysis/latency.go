package analysis

import (
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// LatencyProfile describes *when* follow-up failures arrive after an
// anchor: the distribution of the delay to the node's next failure within
// a horizon. It is the time-resolved view of the conditional probabilities
// of Section III — the paper's day/week/month windows are three cuts
// through this curve — and it is what justifies the length of the
// risk-aware checkpoint window.
type LatencyProfile struct {
	// Horizon is the maximum delay considered.
	Horizon time.Duration
	// Anchors is the number of anchor failures with a full horizon.
	Anchors int
	// Hits is how many anchors saw a follow-up within the horizon.
	Hits int
	// DelaysHours holds the observed delays in hours, ascending.
	DelaysHours []float64
	// Summary summarizes the delays.
	Summary stats.Summary
	// HalfLife is the delay by which half of all follow-ups (that occur
	// within the horizon) have arrived.
	HalfLife time.Duration
}

// HitRate returns the fraction of anchors with a follow-up inside the
// horizon (the conditional probability for the horizon window).
func (l LatencyProfile) HitRate() float64 {
	if l.Anchors == 0 {
		return 0
	}
	return float64(l.Hits) / float64(l.Anchors)
}

// CumulativeShare returns the fraction of follow-ups that arrived within d
// of their anchor.
func (l LatencyProfile) CumulativeShare(d time.Duration) float64 {
	if len(l.DelaysHours) == 0 {
		return 0
	}
	h := d.Hours()
	i := sort.SearchFloat64s(l.DelaysHours, h)
	// Include exact matches.
	for i < len(l.DelaysHours) && l.DelaysHours[i] <= h {
		i++
	}
	return float64(i) / float64(len(l.DelaysHours))
}

// FollowUpLatency measures the delay from each failure matching anchorPred
// to the SAME node's next failure matching targetPred, within the horizon.
// Anchors whose horizon extends past the measurement period are skipped.
func (a *Analyzer) FollowUpLatency(systems []trace.SystemInfo, anchorPred, targetPred trace.Pred, horizon time.Duration) LatencyProfile {
	out := LatencyProfile{Horizon: horizon}
	for _, s := range systems {
		for n := 0; n < s.Nodes; n++ {
			fs := a.NodeFailures(s.ID, n)
			for i, f := range fs {
				if !anchorPred.Match(f) {
					continue
				}
				end := f.Time.Add(horizon)
				if end.After(s.Period.End) {
					continue
				}
				out.Anchors++
				for j := i + 1; j < len(fs); j++ {
					g := fs[j]
					if !g.Time.Before(end) {
						break
					}
					if !g.Time.After(f.Time) {
						continue // same-instant records are not follow-ups
					}
					if targetPred.Match(g) {
						out.Hits++
						out.DelaysHours = append(out.DelaysHours, g.Time.Sub(f.Time).Hours())
						break
					}
				}
			}
		}
	}
	sort.Float64s(out.DelaysHours)
	if len(out.DelaysHours) > 0 {
		out.Summary = stats.Summarize(out.DelaysHours)
		out.HalfLife = time.Duration(stats.Median(out.DelaysHours) * float64(time.Hour))
	}
	return out
}

// LatencyBins histograms the delays into equal-width bins over the horizon,
// returning per-bin counts (for rendering the decay curve).
func (l LatencyProfile) LatencyBins(bins int) []int {
	if bins <= 0 {
		return nil
	}
	out := make([]int, bins)
	hh := l.Horizon.Hours()
	if hh <= 0 {
		return out
	}
	for _, d := range l.DelaysHours {
		b := int(d / hh * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		out[b]++
	}
	return out
}
