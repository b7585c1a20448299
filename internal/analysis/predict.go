package analysis

import (
	"fmt"
	"time"

	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// Predictor is a root-cause-aware follow-up-failure predictor built on the
// conditional probabilities of Section III: after a failure of category X
// on a node, it predicts whether the same node fails again within the
// horizon. The paper argues prediction models "should not only account for
// correlations in time and space, but also consider the root-causes of
// failures" — this type quantifies that claim.
type Predictor struct {
	// Horizon is the look-ahead window.
	Horizon time.Duration
	// Threshold is the alert cutoff on the trained probability.
	Threshold float64
	// Trained maps each category to its trained follow-up probability.
	Trained map[trace.Category]stats.Proportion
}

// TrainPredictor estimates per-category follow-up probabilities from the
// part of each system's trace before the split fraction (0 < split < 1).
func (a *Analyzer) TrainPredictor(systems []trace.SystemInfo, horizon time.Duration, split, threshold float64) (*Predictor, error) {
	if split <= 0 || split >= 1 {
		return nil, fmt.Errorf("analysis: split %g outside (0,1)", split)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("analysis: non-positive horizon")
	}
	p := &Predictor{
		Horizon:   horizon,
		Threshold: threshold,
		Trained:   make(map[trace.Category]stats.Proportion, len(trace.Categories)),
	}
	cut := splitTimes(systems, split)
	for _, cat := range trace.Categories {
		var prop stats.Proportion
		for _, s := range systems {
			for _, f := range a.SystemFailures(s.ID) {
				if f.Category != cat || !f.Time.Before(cut[s.ID]) {
					continue
				}
				end := f.Time.Add(horizon)
				if end.After(cut[s.ID]) {
					continue // window would leak into evaluation data
				}
				prop.Trials++
				iv := trace.Interval{Start: f.Time.Add(time.Nanosecond), End: end}
				if a.nodeAny(s.ID, f.Node, iv) {
					prop.Successes++
				}
			}
		}
		p.Trained[cat] = prop
	}
	return p, nil
}

// splitTimes computes the per-system train/evaluate boundary.
func splitTimes(systems []trace.SystemInfo, split float64) map[int]time.Time {
	cut := make(map[int]time.Time, len(systems))
	for _, s := range systems {
		cut[s.ID] = s.Period.Start.Add(time.Duration(split * float64(s.Period.Duration())))
	}
	return cut
}

// Predict reports whether the predictor would alert after the given
// failure.
func (p *Predictor) Predict(f trace.Failure) bool {
	prop, ok := p.Trained[f.Category]
	if !ok || !prop.Valid() {
		return false
	}
	return prop.P() >= p.Threshold
}

// Evaluation summarizes held-out performance.
type Evaluation struct {
	// Alerts is the number of positive predictions.
	Alerts int
	// TP, FP, FN are the confusion-matrix cells (true negatives follow
	// from Total).
	TP, FP, FN int
	// Total is the number of evaluated anchors.
	Total int
	// BaseRate is the unconditional follow-up rate on the evaluation set.
	BaseRate float64
}

// Precision returns TP/(TP+FP).
func (e Evaluation) Precision() float64 {
	if e.TP+e.FP == 0 {
		return 0
	}
	return float64(e.TP) / float64(e.TP+e.FP)
}

// Recall returns TP/(TP+FN).
func (e Evaluation) Recall() float64 {
	if e.TP+e.FN == 0 {
		return 0
	}
	return float64(e.TP) / float64(e.TP+e.FN)
}

// Lift returns precision over the base rate.
func (e Evaluation) Lift() float64 {
	if e.BaseRate == 0 {
		return 0
	}
	return e.Precision() / e.BaseRate
}

// Evaluate runs the predictor over the held-out part of the trace (after
// the same split used for training).
func (a *Analyzer) Evaluate(p *Predictor, systems []trace.SystemInfo, split float64) (Evaluation, error) {
	if split <= 0 || split >= 1 {
		return Evaluation{}, fmt.Errorf("analysis: split %g outside (0,1)", split)
	}
	cut := splitTimes(systems, split)
	var ev Evaluation
	base := 0
	for _, s := range systems {
		for _, f := range a.SystemFailures(s.ID) {
			if f.Time.Before(cut[s.ID]) {
				continue
			}
			end := f.Time.Add(p.Horizon)
			if end.After(s.Period.End) {
				continue
			}
			iv := trace.Interval{Start: f.Time.Add(time.Nanosecond), End: end}
			actual := a.nodeAny(s.ID, f.Node, iv)
			predicted := p.Predict(f)
			ev.Total++
			if actual {
				base++
			}
			switch {
			case predicted && actual:
				ev.TP++
			case predicted && !actual:
				ev.FP++
			case !predicted && actual:
				ev.FN++
			}
		}
	}
	ev.Alerts = ev.TP + ev.FP
	if ev.Total > 0 {
		ev.BaseRate = float64(base) / float64(ev.Total)
	}
	return ev, nil
}
