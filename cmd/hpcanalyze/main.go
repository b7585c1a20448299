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
	"strings"
	"time"

	"github.com/hpcfail/hpcfail"
	"github.com/hpcfail/hpcfail/internal/cli"
)

func main() {
	cli.Main("hpcanalyze", run)
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("hpcanalyze", flag.ContinueOnError)
	data := fs.String("data", "", "dataset directory (required; use hpcgen to create one)")
	anchor := fs.String("anchor", "", "anchor event: ENV|HW|HUMAN|NET|SW|UNDET, HW/<component>, SW/<class>, ENV/<subtype>, or empty for any failure")
	target := fs.String("target", "", "target event, same syntax; empty for any failure")
	window := fs.String("window", "week", "window: day, week, month, or a Go duration")
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

	anchorPred, err := parsePred(*anchor)
	if err != nil {
		return fmt.Errorf("anchor: %w", err)
	}
	targetPred, err := parsePred(*target)
	if err != nil {
		return fmt.Errorf("target: %w", err)
	}
	w, err := parseWindow(*window)
	if err != nil {
		return err
	}
	sc, err := parseScope(*scope)
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

// parsePred parses the CLI event syntax into a predicate.
func parsePred(s string) (hpcfail.Pred, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.SplitN(s, "/", 2)
	cat, err := parseCategory(parts[0])
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return hpcfail.CategoryPred(cat), nil
	}
	switch cat {
	case hpcfail.Hardware:
		comp, err := parseHW(parts[1])
		if err != nil {
			return nil, err
		}
		return hpcfail.HWPred(comp), nil
	case hpcfail.Software:
		cls, err := parseSW(parts[1])
		if err != nil {
			return nil, err
		}
		return hpcfail.SWPred(cls), nil
	case hpcfail.Environment:
		sub, err := parseEnv(parts[1])
		if err != nil {
			return nil, err
		}
		return hpcfail.EnvPred(sub), nil
	default:
		return nil, fmt.Errorf("category %s has no subtypes", cat)
	}
}

func parseCategory(s string) (hpcfail.Category, error) {
	for _, c := range []hpcfail.Category{hpcfail.Environment, hpcfail.Hardware, hpcfail.Human, hpcfail.Network, hpcfail.Software, hpcfail.Undetermined} {
		if strings.EqualFold(c.String(), s) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown category %q", s)
}

func parseHW(s string) (hpcfail.HWComponent, error) {
	for _, c := range []hpcfail.HWComponent{hpcfail.CPU, hpcfail.Memory, hpcfail.NodeBoard, hpcfail.PowerSupply, hpcfail.Fan, hpcfail.MSCBoard, hpcfail.Midplane} {
		if strings.EqualFold(c.String(), s) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown hardware component %q", s)
}

func parseSW(s string) (hpcfail.SWClass, error) {
	for _, c := range []hpcfail.SWClass{hpcfail.DST, hpcfail.OS, hpcfail.PFS, hpcfail.CFS, hpcfail.PatchInstall, hpcfail.OtherSW} {
		if strings.EqualFold(c.String(), s) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown software class %q", s)
}

func parseEnv(s string) (hpcfail.EnvClass, error) {
	for _, c := range []hpcfail.EnvClass{hpcfail.PowerOutage, hpcfail.PowerSpike, hpcfail.UPS, hpcfail.Chillers, hpcfail.OtherEnv} {
		if strings.EqualFold(c.String(), s) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown environment subtype %q", s)
}

func parseWindow(s string) (time.Duration, error) {
	switch s {
	case "day":
		return hpcfail.Day, nil
	case "week":
		return hpcfail.Week, nil
	case "month":
		return hpcfail.Month, nil
	}
	w, err := time.ParseDuration(s)
	if err == nil && w <= 0 {
		err = fmt.Errorf("window %q is not positive", s)
	}
	return w, err
}

func parseScope(s string) (hpcfail.Scope, error) {
	switch s {
	case "node":
		return hpcfail.ScopeNode, nil
	case "rack":
		return hpcfail.ScopeRack, nil
	case "system":
		return hpcfail.ScopeSystem, nil
	default:
		return 0, fmt.Errorf("unknown scope %q", s)
	}
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
