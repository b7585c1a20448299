// Command hpccheckpoint replays checkpoint-interval policies against the
// failure histories in a dataset and reports lost work, overhead and total
// cost per policy — the operational payoff of the correlation analysis
// (Section III): a risk-aware policy that tightens its interval after a
// failure beats the Young-optimal fixed interval.
//
// Usage:
//
//	hpccheckpoint -data dir [-cost 10m] [-window 72h] [-group 1]
//	hpccheckpoint -data dir -base 40h -risky 8h
package main

import (
	"flag"
	"fmt"
	"time"

	"github.com/hpcfail/hpcfail"
	"github.com/hpcfail/hpcfail/internal/cli"
)

func main() {
	cli.Main("hpccheckpoint", run)
}

func run(args []string) error {
	fs := flag.NewFlagSet("hpccheckpoint", flag.ContinueOnError)
	data := fs.String("data", "", "dataset directory (required)")
	cost := fs.Duration("cost", 10*time.Minute, "time to write one checkpoint")
	base := fs.Duration("base", 0, "fixed/base interval (default: Young's optimum from the measured MTBF)")
	risky := fs.Duration("risky", 0, "interval inside the post-failure window (default: base/6)")
	window := fs.Duration("window", 72*time.Hour, "length of the post-failure high-risk window")
	group := fs.Int("group", 1, "restrict to group 1 or 2 (0 = all systems)")
	versionOf := cli.VersionFlag(fs, "hpccheckpoint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if versionOf() {
		return nil
	}
	if *data == "" {
		fs.Usage()
		return cli.Usagef("-data is required")
	}
	if *cost <= 0 {
		return cli.Usagef("-cost must be positive")
	}
	ds, err := hpcfail.LoadDataset(*data)
	if err != nil {
		return err
	}
	a := hpcfail.NewAnalyzer(ds)
	systems := ds.Systems
	switch *group {
	case 1:
		systems = ds.GroupSystems(hpcfail.Group1)
	case 2:
		systems = ds.GroupSystems(hpcfail.Group2)
	}
	if len(systems) == 0 {
		return fmt.Errorf("no systems selected")
	}

	mtbf := time.Duration(a.MTBFHours(systems) * float64(time.Hour))
	if *base <= 0 {
		*base = hpcfail.YoungInterval(*cost, mtbf).Round(time.Hour)
		if *base <= 0 {
			return fmt.Errorf("could not derive a base interval (MTBF %s)", mtbf)
		}
	}
	if *risky <= 0 {
		*risky = *base / 6
	}
	fmt.Printf("measured node MTBF %s; base interval %s, risky interval %s inside %s window\n\n",
		mtbf.Round(time.Hour), *base, *risky, *window)

	failureTimes := func(system, node int) []time.Time {
		fs := a.NodeFailures(system, node)
		out := make([]time.Time, len(fs))
		for i, f := range fs {
			out[i] = f.Time
		}
		return out
	}
	policies := []hpcfail.CheckpointPolicy{
		hpcfail.FixedCheckpoint{Every: *base},
		hpcfail.RiskAwareCheckpoint{Base: *base, Risky: *risky, Window: *window},
	}
	results, err := hpcfail.CompareCheckpointPolicies(systems, failureTimes, *cost, policies...)
	if err != nil {
		return err
	}
	fmt.Printf("%-30s %14s %14s %14s %12s\n", "policy", "lost work", "overhead", "total", "checkpoints")
	for i, p := range policies {
		r := results[i]
		fmt.Printf("%-30s %14s %14s %14s %12d\n", p.Name(),
			r.Lost.Round(time.Hour), r.Overhead.Round(time.Hour), r.Total().Round(time.Hour), r.Checkpoints)
	}
	saving := 1 - float64(results[1].Total())/float64(results[0].Total())
	fmt.Printf("\nrisk-aware saving over fixed: %.1f%%\n", 100*saving)
	return nil
}
