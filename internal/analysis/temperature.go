package analysis

import (
	"fmt"
	"math"
	"time"

	"github.com/hpcfail/hpcfail/internal/regress"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// CoolingEventKind identifies the Section VIII anchors.
type CoolingEventKind int

const (
	// AfterFanFail anchors on Hardware/Fan failures.
	AfterFanFail CoolingEventKind = iota + 1
	// AfterChillerFail anchors on Environment/Chillers failures.
	AfterChillerFail
)

// CoolingEventKinds lists the anchors in figure order.
var CoolingEventKinds = []CoolingEventKind{AfterChillerFail, AfterFanFail}

// String names the anchor.
func (k CoolingEventKind) String() string {
	switch k {
	case AfterFanFail:
		return "FanFail"
	case AfterChillerFail:
		return "ChillerFail"
	default:
		return "cooling(?)"
	}
}

// Pred returns the anchor predicate.
func (k CoolingEventKind) Pred() trace.Pred {
	switch k {
	case AfterFanFail:
		return trace.HWPred(trace.Fan)
	case AfterChillerFail:
		return trace.EnvPred(trace.Chillers)
	default:
		return trace.PredOf(func(trace.Failure) bool { return false })
	}
}

// CoolingImpact holds Figure 13 left for one anchor kind.
type CoolingImpact struct {
	Kind    CoolingEventKind
	ByDay   CondResult
	ByWeek  CondResult
	ByMonth CondResult
}

// CoolingImpactOnHardware computes Figure 13 left: the probability of a
// hardware failure within a day, week and month of a fan or chiller
// failure. Fan anchors exclude themselves by construction (the window opens
// just after the anchor).
func (a *Analyzer) CoolingImpactOnHardware(systems []trace.SystemInfo) []CoolingImpact {
	target := trace.CategoryPred(trace.Hardware)
	out := make([]CoolingImpact, 0, len(CoolingEventKinds))
	for _, k := range CoolingEventKinds {
		anchor := k.Pred()
		out = append(out, CoolingImpact{
			Kind:    k,
			ByDay:   a.CondProb(systems, anchor, target, trace.Day, ScopeNode),
			ByWeek:  a.CondProb(systems, anchor, target, trace.Week, ScopeNode),
			ByMonth: a.CondProb(systems, anchor, target, trace.Month, ScopeNode),
		})
	}
	return out
}

// CoolingComponentImpact is one cell of Figure 13 right.
type CoolingComponentImpact struct {
	Kind      CoolingEventKind
	Component trace.HWComponent
	Result    CondResult
}

// CoolingImpactOnComponents computes Figure 13 right: monthly per-component
// failure probabilities after fan and chiller failures.
func (a *Analyzer) CoolingImpactOnComponents(systems []trace.SystemInfo, components []trace.HWComponent) []CoolingComponentImpact {
	out := make([]CoolingComponentImpact, 0, len(CoolingEventKinds)*len(components))
	for _, k := range CoolingEventKinds {
		anchor := k.Pred()
		for _, comp := range components {
			out = append(out, CoolingComponentImpact{
				Kind:      k,
				Component: comp,
				Result:    a.CondProb(systems, anchor, trace.HWPred(comp), trace.Month, ScopeNode),
			})
		}
	}
	return out
}

// NodeTemps aggregates one node's temperature record into the regression
// covariates of Table I.
type NodeTemps struct {
	Node int
	// Avg, Max and Var summarize the node's samples.
	Avg, Max, Var float64
	// NumHighTemp counts samples above trace.HighTempThreshold.
	NumHighTemp int
	// Samples is the number of readings the summaries are over.
	Samples int
}

// TemperatureSummary computes per-node temperature aggregates for a system
// with sensor data.
func (a *Analyzer) TemperatureSummary(system int) []NodeTemps {
	info, _ := a.DS.System(system)
	sum := make([]float64, info.Nodes)
	sumSq := make([]float64, info.Nodes)
	maxv := make([]float64, info.Nodes)
	high := make([]int, info.Nodes)
	count := make([]int, info.Nodes)
	for i := range maxv {
		maxv[i] = math.Inf(-1)
	}
	for _, t := range a.DS.Temps {
		if t.System != system || t.Node < 0 || t.Node >= info.Nodes {
			continue
		}
		sum[t.Node] += t.Celsius
		sumSq[t.Node] += t.Celsius * t.Celsius
		if t.Celsius > maxv[t.Node] {
			maxv[t.Node] = t.Celsius
		}
		if t.Celsius > trace.HighTempThreshold {
			high[t.Node]++
		}
		count[t.Node]++
	}
	out := make([]NodeTemps, 0, info.Nodes)
	for n := 0; n < info.Nodes; n++ {
		nt := NodeTemps{Node: n, NumHighTemp: high[n], Samples: count[n]}
		if count[n] > 0 {
			nt.Avg = sum[n] / float64(count[n])
			nt.Max = maxv[n]
			nt.Var = sumSq[n]/float64(count[n]) - nt.Avg*nt.Avg
			if nt.Var < 0 {
				nt.Var = 0
			}
		}
		out = append(out, nt)
	}
	return out
}

// TempRegressionResult is one Section VIII.A regression: failure counts of
// one target against a single temperature covariate, under Poisson and
// negative-binomial models.
type TempRegressionResult struct {
	Target    string
	Covariate string
	Poisson   regress.Coef
	NegBinom  regress.Coef
}

// TemperatureRegressions fits, for each target (all hardware failures, CPU
// failures, DRAM failures) and each temperature covariate (avg, max,
// variance), a single-covariate Poisson and NB regression of per-node
// failure counts — formalizing the paper's finding that none of them is
// significant.
func (a *Analyzer) TemperatureRegressions(system int) ([]TempRegressionResult, error) {
	info, _ := a.DS.System(system)
	temps := a.TemperatureSummary(system)
	covered := 0
	for _, nt := range temps {
		if nt.Samples > 0 {
			covered++
		}
	}
	if covered == 0 {
		return nil, fmt.Errorf("analysis: system %d has no temperature data", system)
	}
	targets := []struct {
		name string
		pred trace.Pred
	}{
		{"hardware", trace.CategoryPred(trace.Hardware)},
		{"cpu", trace.HWPred(trace.CPU)},
		{"dram", trace.HWPred(trace.Memory)},
	}
	var out []TempRegressionResult
	for _, tgt := range targets {
		counts := make([]float64, info.Nodes)
		for _, f := range a.SystemFailures(system) {
			if tgt.pred.Match(f) && f.Node >= 0 && f.Node < info.Nodes {
				counts[f.Node]++
			}
		}
		covs := []struct {
			name string
			vals func(NodeTemps) float64
		}{
			{"avg_temp", func(t NodeTemps) float64 { return t.Avg }},
			{"max_temp", func(t NodeTemps) float64 { return t.Max }},
			{"temp_var", func(t NodeTemps) float64 { return t.Var }},
		}
		for _, cov := range covs {
			xs := make([]float64, info.Nodes)
			for i, t := range temps {
				xs[i] = cov.vals(t)
			}
			m := &regress.Model{
				Response: counts,
				Terms:    []regress.Term{{Name: cov.name, Values: xs}},
			}
			pf, err := regress.Poisson(m)
			if err != nil {
				return nil, fmt.Errorf("poisson %s~%s: %w", tgt.name, cov.name, err)
			}
			nf, err := regress.NegBinomial(m)
			if err != nil {
				return nil, fmt.Errorf("negbinomial %s~%s: %w", tgt.name, cov.name, err)
			}
			pc, _ := pf.Coef(cov.name)
			nc, _ := nf.Coef(cov.name)
			out = append(out, TempRegressionResult{
				Target:    tgt.name,
				Covariate: cov.name,
				Poisson:   pc,
				NegBinom:  nc,
			})
		}
	}
	return out, nil
}

// TempWindow reports the day/week/month windows used by the cooling
// analyses, for rendering.
var TempWindows = []time.Duration{trace.Day, trace.Week, trace.Month}
