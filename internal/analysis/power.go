package analysis

import (
	"time"

	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// EnvBreakdown computes the Figure 9 pie: the share of each environment
// failure subtype among all environment failures of the given systems.
func (a *Analyzer) EnvBreakdown(systems []trace.SystemInfo) map[trace.EnvClass]float64 {
	want := make(map[int]bool, len(systems))
	for _, s := range systems {
		want[s.ID] = true
	}
	counts := make(map[trace.EnvClass]int)
	total := 0
	for _, f := range a.DS.Failures {
		if !want[f.System] || f.Category != trace.Environment {
			continue
		}
		counts[f.Env]++
		total++
	}
	out := make(map[trace.EnvClass]float64, len(counts))
	if total == 0 {
		return out
	}
	for cls, c := range counts {
		out[cls] = float64(c) / float64(total)
	}
	return out
}

// PowerEventKind identifies the four power-problem anchors of Section VII.
type PowerEventKind int

const (
	// AfterOutage anchors on Environment/PowerOutage failures.
	AfterOutage PowerEventKind = iota + 1
	// AfterSpike anchors on Environment/PowerSpike failures.
	AfterSpike
	// AfterPSUFail anchors on Hardware/PowerSupply failures.
	AfterPSUFail
	// AfterUPSFail anchors on Environment/UPS failures.
	AfterUPSFail
)

// PowerEventKinds lists the anchors in the paper's figure order.
var PowerEventKinds = []PowerEventKind{AfterOutage, AfterSpike, AfterPSUFail, AfterUPSFail}

// String names the anchor.
func (k PowerEventKind) String() string {
	switch k {
	case AfterOutage:
		return "PowerOutage"
	case AfterSpike:
		return "PowerSpike"
	case AfterPSUFail:
		return "PowerSupplyFail"
	case AfterUPSFail:
		return "UPSFail"
	default:
		return "power(?)"
	}
}

// Pred returns the anchor predicate.
func (k PowerEventKind) Pred() trace.Pred {
	switch k {
	case AfterOutage:
		return trace.EnvPred(trace.PowerOutage)
	case AfterSpike:
		return trace.EnvPred(trace.PowerSpike)
	case AfterPSUFail:
		return trace.HWPred(trace.PowerSupply)
	case AfterUPSFail:
		return trace.EnvPred(trace.UPS)
	default:
		return trace.PredOf(func(trace.Failure) bool { return false })
	}
}

// PowerImpact holds Figure 10/11 (left): for one power-problem kind, the
// probability of a target failure within a day, week and month, against the
// matching baselines.
type PowerImpact struct {
	Kind    PowerEventKind
	ByDay   CondResult
	ByWeek  CondResult
	ByMonth CondResult
}

// PowerImpactOn computes the day/week/month conditional probabilities of
// target failures following each power-problem kind — Figure 10 left with
// targetPred selecting hardware failures, Figure 11 left with software.
func (a *Analyzer) PowerImpactOn(systems []trace.SystemInfo, targetPred trace.Pred) []PowerImpact {
	out := make([]PowerImpact, 0, len(PowerEventKinds))
	for _, k := range PowerEventKinds {
		anchor := k.Pred()
		out = append(out, PowerImpact{
			Kind:    k,
			ByDay:   a.CondProb(systems, anchor, targetPred, trace.Day, ScopeNode),
			ByWeek:  a.CondProb(systems, anchor, targetPred, trace.Week, ScopeNode),
			ByMonth: a.CondProb(systems, anchor, targetPred, trace.Month, ScopeNode),
		})
	}
	return out
}

// ComponentImpact is one cell of Figure 10 (right): the monthly
// probability of one hardware component failing after one power-problem
// kind.
type ComponentImpact struct {
	Kind      PowerEventKind
	Component trace.HWComponent
	Result    CondResult
}

// PowerImpactOnComponents computes Figure 10 right: for each power-problem
// kind and each hardware component, the probability of that component
// failing within a month, against the component's random-month baseline.
func (a *Analyzer) PowerImpactOnComponents(systems []trace.SystemInfo, components []trace.HWComponent) []ComponentImpact {
	out := make([]ComponentImpact, 0, len(PowerEventKinds)*len(components))
	for _, k := range PowerEventKinds {
		anchor := k.Pred()
		for _, comp := range components {
			out = append(out, ComponentImpact{
				Kind:      k,
				Component: comp,
				Result:    a.CondProb(systems, anchor, trace.HWPred(comp), trace.Month, ScopeNode),
			})
		}
	}
	return out
}

// SWClassImpact is one cell of Figure 11 (right).
type SWClassImpact struct {
	Kind   PowerEventKind
	Class  trace.SWClass
	Result CondResult
}

// PowerImpactOnSWClasses computes Figure 11 right: the monthly probability
// of each software class failing after each power-problem kind.
func (a *Analyzer) PowerImpactOnSWClasses(systems []trace.SystemInfo, classes []trace.SWClass) []SWClassImpact {
	out := make([]SWClassImpact, 0, len(PowerEventKinds)*len(classes))
	for _, k := range PowerEventKinds {
		anchor := k.Pred()
		for _, cls := range classes {
			out = append(out, SWClassImpact{
				Kind:   k,
				Class:  cls,
				Result: a.CondProb(systems, anchor, trace.SWPred(cls), trace.Month, ScopeNode),
			})
		}
	}
	return out
}

// MaintenanceImpact holds the Section VII.A.2 comparison: the probability
// of unscheduled hardware maintenance within a month of a power problem
// against a random month.
type MaintenanceImpact struct {
	Kind        PowerEventKind
	Conditional stats.Proportion
	Baseline    stats.Proportion
	Test        stats.TestResult
}

// Factor returns the conditional-over-baseline increase.
func (m MaintenanceImpact) Factor() float64 { return m.Conditional.FactorOver(m.Baseline) }

// MaintenanceAfterPower computes, for each power-problem kind, the
// probability that an affected node needs unscheduled hardware maintenance
// within w, against the random-window baseline.
func (a *Analyzer) MaintenanceAfterPower(systems []trace.SystemInfo, w time.Duration) []MaintenanceImpact {
	baseS, baseT := a.maintCountWindows(systems, w)
	base := stats.Proportion{Successes: baseS, Trials: baseT}
	out := make([]MaintenanceImpact, 0, len(PowerEventKinds))
	for _, k := range PowerEventKinds {
		anchor := k.Pred()
		mi := MaintenanceImpact{Kind: k, Baseline: base}
		for _, s := range systems {
			for _, f := range a.SystemFailures(s.ID) {
				if !anchor.Match(f) {
					continue
				}
				end := f.Time.Add(w)
				if end.After(s.Period.End) {
					continue
				}
				mi.Conditional.Trials++
				if a.maintAny(s.ID, f.Node, trace.Interval{Start: f.Time, End: end}) {
					mi.Conditional.Successes++
				}
			}
		}
		if t, err := stats.TwoProportionZTest(mi.Conditional, mi.Baseline); err == nil {
			mi.Test = t
		}
		out = append(out, mi)
	}
	return out
}
