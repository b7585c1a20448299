package experiments

import (
	"fmt"

	"github.com/hpcfail/hpcfail/internal/report"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// ExtOverview renders the per-system overview table (the Section II /
// prior-work style summary): size, failure counts, rates, MTBF and
// availability. Its headline check is the paper's motivating argument that
// failure rates scale with component count: group-2 NUMA nodes fail far
// more often per node than group-1 SMP nodes, but comparably per
// processor.
func (s *Suite) ExtOverview() Result {
	res := Result{ID: "ext-overview", Title: "Per-system overview"}
	tbl := report.NewTable("system", "group", "nodes", "procs", "failures",
		"per node-year", "MTBF (h)", "availability").AlignRight(2, 3, 4, 5, 6, 7)
	type rates struct{ perNodeYear, perProcYear, nodeYears, procYears, fails float64 }
	groupRates := map[trace.Group]*rates{
		trace.Group1: {}, trace.Group2: {},
	}
	for _, info := range s.A.DS.Systems {
		one := []trace.SystemInfo{info}
		fails := float64(len(s.A.SystemFailures(info.ID)))
		nodeYears := info.NodeDays() / 365.25
		procYears := nodeYears * float64(info.ProcsPerNode)
		tbl.AddRow(
			fmt.Sprintf("%d", info.ID),
			info.Group.String(),
			fmt.Sprintf("%d", info.Nodes),
			fmt.Sprintf("%d", info.Procs()),
			fmt.Sprintf("%.0f", fails),
			report.Float(fails/nodeYears, 2),
			report.Float(s.A.MTBFHours(one), 0),
			report.Percent(s.A.Availability(one), 2),
		)
		g := groupRates[info.Group]
		g.fails += fails
		g.nodeYears += nodeYears
		g.procYears += procYears
	}
	res.Figure = tbl.Render()

	g1, g2 := groupRates[trace.Group1], groupRates[trace.Group2]
	g1Node := g1.fails / g1.nodeYears
	g2Node := g2.fails / g2.nodeYears
	g1Proc := g1.fails / g1.procYears
	g2Proc := g2.fails / g2.procYears
	res.Metrics = []Metric{
		{"G2 per-node rate >> G1 (larger component count)", "yes (NUMA nodes, 128 procs)",
			fmt.Sprintf("%.1f vs %.1f failures/node-year (%.0fx)", g2Node, g1Node, g2Node/g1Node)},
		{"per-processor rates comparable", "implied by Sec II",
			fmt.Sprintf("G1 %.3f vs G2 %.3f failures/proc-year", g1Proc, g2Proc)},
	}
	return res
}
