package analysis

import (
	"fmt"
	"sort"

	"github.com/hpcfail/hpcfail/internal/regress"
	"github.com/hpcfail/hpcfail/internal/stats"
)

// NodeUsage is one point of the Figure 7 scatter plots: a node's usage
// metrics against its lifetime failure count.
type NodeUsage struct {
	Node int
	// Utilization is the fraction of the measurement period with at least
	// one job assigned (0..1).
	Utilization float64
	// Jobs is the number of jobs ever assigned to the node.
	Jobs int
	// Failures is the node's failure count.
	Failures int
}

// UsageResult bundles the usage-vs-failures analysis of one system
// (Section V / Figure 7).
type UsageResult struct {
	System int
	Nodes  []NodeUsage
	// UtilCorr and JobsCorr are the Pearson correlations of failures with
	// utilization and job count.
	UtilCorr stats.Correlation
	JobsCorr stats.Correlation
	// JobsCorrSansZero repeats the jobs correlation with node 0 removed —
	// the paper's test of whether node 0 drives the relationship.
	UtilCorrSansZero stats.Correlation
	JobsCorrSansZero stats.Correlation
}

// UsageVsFailures computes Section V for one system with a job log.
func (a *Analyzer) UsageVsFailures(system int) UsageResult {
	info, _ := a.DS.System(system)
	out := UsageResult{System: system}
	counts := make([]int, info.Nodes)
	for _, f := range a.SystemFailures(system) {
		if f.Node >= 0 && f.Node < info.Nodes {
			counts[f.Node]++
		}
	}
	var utils, jobs, fails []float64
	for n := 0; n < info.Nodes; n++ {
		u := a.Jobs.NodeUtilization(system, n, info.Period)
		j := a.Jobs.NodeJobCount(system, n)
		out.Nodes = append(out.Nodes, NodeUsage{
			Node: n, Utilization: u, Jobs: j, Failures: counts[n],
		})
		utils = append(utils, u)
		jobs = append(jobs, float64(j))
		fails = append(fails, float64(counts[n]))
	}
	out.UtilCorr = stats.Pearson(utils, fails)
	out.JobsCorr = stats.Pearson(jobs, fails)
	if len(utils) > 3 {
		out.UtilCorrSansZero = stats.Pearson(utils[1:], fails[1:])
		out.JobsCorrSansZero = stats.Pearson(jobs[1:], fails[1:])
	}
	return out
}

// UserRate is one bar of Figure 8: a user's node-failure experience
// normalized by the processor-days they consumed.
type UserRate struct {
	User int
	// ProcDays is the user's total processor-days on the system.
	ProcDays float64
	// NodeFailures is the number of the user's jobs terminated by a node
	// failure (application failures are excluded by construction).
	NodeFailures int
}

// Rate returns failures per processor-day.
func (u UserRate) Rate() float64 {
	if u.ProcDays <= 0 {
		return 0
	}
	return float64(u.NodeFailures) / u.ProcDays
}

// UserResult is the Section VI analysis for one system.
type UserResult struct {
	System int
	// Users holds the heaviest users by processor-days, descending.
	Users []UserRate
	// Anova is the likelihood-ratio comparison of the saturated per-user
	// Poisson rate model against the common-rate model.
	Anova stats.TestResult
}

// UserFailureRates computes Figure 8 for one system: the failure rate per
// processor-day of the top-k heaviest users, plus the saturated-vs-common
// Poisson ANOVA over those users.
func (a *Analyzer) UserFailureRates(system, topK int) (UserResult, error) {
	out := UserResult{System: system}
	agg := make(map[int]*UserRate)
	for _, j := range a.DS.SystemJobs(system) {
		u, ok := agg[j.User]
		if !ok {
			u = &UserRate{User: j.User}
			agg[j.User] = u
		}
		u.ProcDays += j.ProcDays()
		if j.FailedByNode {
			u.NodeFailures++
		}
	}
	all := make([]UserRate, 0, len(agg))
	for _, u := range agg {
		if u.ProcDays > 0 {
			all = append(all, *u)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ProcDays > all[j].ProcDays })
	if topK > 0 && topK < len(all) {
		all = all[:topK]
	}
	out.Users = all

	groups := make([]regress.RateGroup, 0, len(all))
	for _, u := range all {
		groups = append(groups, regress.RateGroup{
			Label:    fmt.Sprintf("user-%d", u.User),
			Count:    float64(u.NodeFailures),
			Exposure: u.ProcDays,
		})
	}
	res, err := regress.SaturatedVsCommonRate(groups)
	if err != nil {
		return out, err
	}
	out.Anova = res
	return out, nil
}
