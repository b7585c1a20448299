// Checkpointing: use the paper's correlation insight — a node that just
// failed is 5-20X more likely to fail again — to drive an adaptive
// checkpoint policy, and compare the work lost against fixed-interval
// baselines on the same failure trace.
//
// The replay engine lives in the library (hpcfail.ReplayCheckpoints); this
// example sizes the fixed baseline with Young's formula from the measured
// MTBF, then shows that spending extra checkpoints inside the post-failure
// high-risk window (Section III) beats it.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/hpcfail/hpcfail"
)

const checkpointCost = 10 * time.Minute

func main() {
	ds, err := hpcfail.Generate(hpcfail.GenerateOptions{Seed: 11, Scale: 0.25})
	if err != nil {
		log.Fatal(err)
	}
	a := hpcfail.NewAnalyzer(ds)
	systems := ds.GroupSystems(hpcfail.Group1)

	// Size the classical baseline from the data: Young's optimum for the
	// measured per-node MTBF.
	mtbf := time.Duration(a.MTBFHours(systems) * float64(time.Hour))
	young := hpcfail.YoungInterval(checkpointCost, mtbf).Round(time.Hour)
	fmt.Printf("measured node MTBF: %s -> Young's optimum interval: %s\n\n",
		mtbf.Round(time.Hour), young)

	failureTimes := func(system, node int) []time.Time {
		fs := a.NodeFailures(system, node)
		out := make([]time.Time, len(fs))
		for i, f := range fs {
			out[i] = f.Time
		}
		return out
	}

	policies := []hpcfail.CheckpointPolicy{
		hpcfail.FixedCheckpoint{Every: young},
		hpcfail.FixedCheckpoint{Every: young / 4},
		hpcfail.RiskAwareCheckpoint{Base: young, Risky: young / 6, Window: 72 * time.Hour},
	}
	results, err := hpcfail.CompareCheckpointPolicies(systems, failureTimes, checkpointCost, policies...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %14s %14s %14s\n", "policy", "lost work", "ckpt overhead", "total cost")
	for i, p := range policies {
		r := results[i]
		fmt.Printf("%-28s %14s %14s %14s\n", p.Name(),
			r.Lost.Round(time.Hour), r.Overhead.Round(time.Hour), r.Total().Round(time.Hour))
	}

	base, adaptive := results[0], results[2]
	fmt.Printf("\nrisk-aware policy saves %.1f%% of total cost over Young-optimal fixed\n",
		100*(1-float64(adaptive.Total())/float64(base.Total())))
	fmt.Println("\nwhy it works: the days after a failure carry a large share of all")
	fmt.Println("failures (Section III), so spending extra checkpoints there buys the")
	fmt.Println("most protection per unit of overhead — blindly checkpointing 4x more")
	fmt.Println("often (second row) mostly buys overhead instead.")
}
