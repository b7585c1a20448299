// Command hpcanalyze answers ad-hoc conditional-probability questions over
// a dataset: "how much more likely is a <target> failure within <window>
// after a <anchor> failure, at <scope> granularity?".
//
// Usage:
//
//	hpcanalyze -data dir -anchor NET -target SW -window week -scope node [-group 1]
//	hpcanalyze -data dir -anchor HW/Memory -window day
//	hpcanalyze -data dir -strictness lenient -max-skip-rate 0.05 -summary
package main

import (
	"flag"
	"fmt"

	"github.com/hpcfail/hpcfail"
	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/cli"
	"github.com/hpcfail/hpcfail/internal/trace"
)

func main() {
	cli.Main("hpcanalyze", run)
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("hpcanalyze", flag.ContinueOnError)
	data := fs.String("data", "", "dataset directory (required; use hpcgen to create one)")
	anchor := fs.String("anchor", "", "anchor event: ENV|HW|HUMAN|NET|SW|UNDET, HW/<component>, SW/<class>, ENV/<subtype> (any case), or empty for any failure")
	target := fs.String("target", "", "target event, same syntax; empty for any failure")
	window := fs.String("window", "week", "window: day, week, month, or a Go duration up to 10 years")
	scope := fs.String("scope", "node", "scope: node, rack, or system")
	group := fs.Int("group", 0, "restrict to group 1 or 2 (0 = all systems)")
	summary := fs.Bool("summary", false, "print a dataset summary and exit")
	policyOf := cli.PolicyFlags(fs, "strict")
	versionOf := cli.VersionFlag(fs, "hpcanalyze")
	profileOf := cli.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if versionOf() {
		return nil
	}
	stopProf, err := profileOf()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	if *data == "" {
		fs.Usage()
		return cli.Usagef("-data is required")
	}
	policy, err := policyOf()
	if err != nil {
		return err
	}
	ds, rep, err := hpcfail.LoadDatasetWith(*data, policy)
	if err != nil {
		cli.PrintReport("hpcanalyze", rep, 5)
		return err
	}
	cli.PrintReport("hpcanalyze", rep, 5)
	if *summary {
		printSummary(ds)
		return nil
	}

	// The query vocabulary is the API's: /v1/condprob parses its
	// parameters with the same three parsers.
	_, anchorPred, err := trace.ParseEventSpec(*anchor)
	if err != nil {
		return fmt.Errorf("anchor: %w", err)
	}
	_, targetPred, err := trace.ParseEventSpec(*target)
	if err != nil {
		return fmt.Errorf("target: %w", err)
	}
	w, err := trace.ParseWindow(*window)
	if err != nil {
		return err
	}
	sc, err := analysis.ParseScope(*scope)
	if err != nil {
		return err
	}
	systems := ds.Systems
	if *group == 1 {
		systems = ds.GroupSystems(hpcfail.Group1)
	} else if *group == 2 {
		systems = ds.GroupSystems(hpcfail.Group2)
	}

	a := hpcfail.NewAnalyzer(ds)
	res := a.CondProb(systems, anchorPred, targetPred, w, sc)
	name := func(s, def string) string {
		if s == "" {
			return def
		}
		return s
	}
	fmt.Printf("P(%s within %s after %s, %s scope)\n",
		name(*target, "any failure"), hpcfail.WindowName(w), name(*anchor, "any failure"), sc)
	fmt.Printf("  conditional: %.4f  (%d/%d)  95%% CI [%.4f, %.4f]\n",
		res.Conditional.P(), res.Conditional.Successes, res.Conditional.Trials, res.CondCI.Lo, res.CondCI.Hi)
	fmt.Printf("  baseline:    %.4f  (%d/%d)\n",
		res.Baseline.P(), res.Baseline.Successes, res.Baseline.Trials)
	fmt.Printf("  factor:      %.2fx  95%% CI [%.2f, %.2f]\n", res.Factor(), res.FactorCI.Lo, res.FactorCI.Hi)
	fmt.Printf("  two-sample z=%.2f p=%.2g (significant at 5%%: %v)\n",
		res.Test.Stat, res.Test.P, res.Significant(0.05))
	return nil
}

func printSummary(ds *hpcfail.Dataset) {
	fmt.Printf("systems: %d, failures: %d, jobs: %d, temps: %d, maintenance: %d, neutrons: %d\n",
		len(ds.Systems), len(ds.Failures), len(ds.Jobs), len(ds.Temps), len(ds.Maintenance), len(ds.Neutrons))
	for _, s := range ds.Systems {
		fails := len(ds.SystemFailures(s.ID))
		fmt.Printf("  system %2d (%s): %4d nodes x %3d procs, %s -> %s, %6d failures\n",
			s.ID, s.Group, s.Nodes, s.ProcsPerNode,
			s.Period.Start.Format("2006-01-02"), s.Period.End.Format("2006-01-02"), fails)
	}
}
