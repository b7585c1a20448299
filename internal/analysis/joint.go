package analysis

import (
	"fmt"

	"github.com/hpcfail/hpcfail/internal/regress"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// JointVariables encodes Table I: the response and predictors of the
// Section X joint regression, assembled per node.
type JointVariables struct {
	System int
	// Node IDs, parallel to all value slices.
	Nodes []int
	// FailsCount is the response: total node outages in the node's
	// lifetime.
	FailsCount []float64
	// Temperature covariates.
	AvgTemp     []float64
	MaxTemp     []float64
	TempVar     []float64
	NumHighTemp []float64
	// Usage covariates.
	NumJobs []float64
	Util    []float64
	// Layout covariate: position in rack (1 = bottom .. 5 = top).
	PIR []float64
}

// VariableNames lists the predictor names in Table I order.
var VariableNames = []string{"avg_temp", "max_temp", "temp_var", "num_hightemp", "num_jobs", "util", "PIR"}

// AssembleJoint builds the Table I variables for a system with temperature
// data, job logs, and a layout (system 20 in the study).
func (a *Analyzer) AssembleJoint(system int) (*JointVariables, error) {
	info, ok := a.DS.System(system)
	if !ok {
		return nil, fmt.Errorf("analysis: unknown system %d", system)
	}
	lay := a.DS.Layouts[system]
	if lay == nil {
		return nil, fmt.Errorf("analysis: system %d has no layout", system)
	}
	temps := a.TemperatureSummary(system)
	if len(temps) != info.Nodes {
		return nil, fmt.Errorf("analysis: system %d temperature summary covers %d of %d nodes", system, len(temps), info.Nodes)
	}
	counts := make([]float64, info.Nodes)
	for _, f := range a.SystemFailures(system) {
		if f.Node >= 0 && f.Node < info.Nodes {
			counts[f.Node]++
		}
	}
	jv := &JointVariables{System: system}
	for n := 0; n < info.Nodes; n++ {
		if temps[n].Samples == 0 {
			continue // node without sensor coverage
		}
		jv.Nodes = append(jv.Nodes, n)
		jv.FailsCount = append(jv.FailsCount, counts[n])
		jv.AvgTemp = append(jv.AvgTemp, temps[n].Avg)
		jv.MaxTemp = append(jv.MaxTemp, temps[n].Max)
		jv.TempVar = append(jv.TempVar, temps[n].Var)
		jv.NumHighTemp = append(jv.NumHighTemp, float64(temps[n].NumHighTemp))
		jv.NumJobs = append(jv.NumJobs, float64(a.Jobs.NodeJobCount(system, n)))
		jv.Util = append(jv.Util, 100*a.Jobs.NodeUtilization(system, n, info.Period))
		jv.PIR = append(jv.PIR, float64(lay.Position(n)))
	}
	if len(jv.Nodes) < 10 {
		return nil, fmt.Errorf("analysis: system %d has only %d usable nodes for the joint regression", system, len(jv.Nodes))
	}
	return jv, nil
}

// WithoutNode returns a copy of the variables with one node removed (the
// paper reruns the models without node 0).
func (jv *JointVariables) WithoutNode(node int) *JointVariables {
	out := &JointVariables{System: jv.System}
	for i, n := range jv.Nodes {
		if n == node {
			continue
		}
		out.Nodes = append(out.Nodes, n)
		out.FailsCount = append(out.FailsCount, jv.FailsCount[i])
		out.AvgTemp = append(out.AvgTemp, jv.AvgTemp[i])
		out.MaxTemp = append(out.MaxTemp, jv.MaxTemp[i])
		out.TempVar = append(out.TempVar, jv.TempVar[i])
		out.NumHighTemp = append(out.NumHighTemp, jv.NumHighTemp[i])
		out.NumJobs = append(out.NumJobs, jv.NumJobs[i])
		out.Util = append(out.Util, jv.Util[i])
		out.PIR = append(out.PIR, jv.PIR[i])
	}
	return out
}

// Model converts the variables into a regression model with the Table I
// predictor set.
func (jv *JointVariables) Model() *regress.Model {
	return &regress.Model{
		Response: jv.FailsCount,
		Terms: []regress.Term{
			{Name: "avg_temp", Values: jv.AvgTemp},
			{Name: "max_temp", Values: jv.MaxTemp},
			{Name: "temp_var", Values: jv.TempVar},
			{Name: "num_hightemp", Values: jv.NumHighTemp},
			{Name: "num_jobs", Values: jv.NumJobs},
			{Name: "util", Values: jv.Util},
			{Name: "PIR", Values: jv.PIR},
		},
	}
}

// JointResult bundles the Section X model fits.
type JointResult struct {
	Variables *JointVariables
	// Poisson and NegBinom reproduce Tables II and III.
	Poisson  *regress.Fit
	NegBinom *regress.Fit
	// PoissonSansZero refits the Poisson model without node 0.
	PoissonSansZero *regress.Fit
}

// JointRegression runs the full Section X analysis for a system.
func (a *Analyzer) JointRegression(system int) (*JointResult, error) {
	jv, err := a.AssembleJoint(system)
	if err != nil {
		return nil, err
	}
	out := &JointResult{Variables: jv}
	if out.Poisson, err = regress.Poisson(jv.Model()); err != nil {
		return nil, fmt.Errorf("poisson fit: %w", err)
	}
	if out.NegBinom, err = regress.NegBinomial(jv.Model()); err != nil {
		return nil, fmt.Errorf("negative-binomial fit: %w", err)
	}
	sans := jv.WithoutNode(0)
	if out.PoissonSansZero, err = regress.Poisson(sans.Model()); err != nil {
		return nil, fmt.Errorf("poisson fit without node 0: %w", err)
	}
	return out, nil
}

// UsedSystems is a convenience returning the systems that have everything
// the joint regression needs.
func (a *Analyzer) UsedSystems() []trace.SystemInfo {
	var out []trace.SystemInfo
	hasTemps := make(map[int]bool)
	for _, t := range a.DS.Temps {
		hasTemps[t.System] = true
	}
	hasJobs := make(map[int]bool)
	for _, j := range a.DS.Jobs {
		hasJobs[j.System] = true
	}
	for _, s := range a.DS.Systems {
		if hasTemps[s.ID] && hasJobs[s.ID] && a.DS.Layouts[s.ID] != nil {
			out = append(out, s)
		}
	}
	return out
}
