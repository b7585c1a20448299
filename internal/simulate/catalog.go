// Package simulate generates synthetic LANL-style operational datasets:
// node-outage logs, job logs, temperature samples, maintenance events, and
// an external neutron-monitor series. It substitutes for the (unavailable)
// raw LANL field data behind the DSN'13 study.
//
// The generator is a discrete-time (daily) marked self-exciting process:
// every node carries per-category baseline hazards; each failure injects
// decaying excitation into its own node, its rack, and its system through a
// type-to-type triggering matrix; exogenous facility events (power outages,
// power spikes, UPS failures, chiller failures) and component events (power
// supply and fan failures) add longer-lived hazard boosts to the affected
// nodes. The parameters (Params) are calibrated so that the analyses in
// internal/analysis recover the effects the paper reports — the shape of
// every figure, not LANL's absolute counts.
package simulate

import (
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// SystemConfig describes one system to generate.
type SystemConfig struct {
	// Info is the system descriptor that ends up in the dataset.
	Info trace.SystemInfo
	// HasLayout controls whether a machine-room layout is generated
	// (group-1 systems in the study have layout files).
	HasLayout bool
	// RacksPerRow sets the floor arrangement for generated layouts.
	RacksPerRow int
	// HasJobs controls whether a job log is generated (systems 8 and 20).
	HasJobs bool
	// JobTarget is the approximate number of job records to generate.
	JobTarget int
	// HasTemps controls whether temperature samples are generated
	// (system 20).
	HasTemps bool
}

func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

// Catalog returns the default system catalog mirroring the ten LANL systems
// of the study (IDs 2, 3, 4, 5, 6, 16, 18, 19, 20, 23) plus system 8, which
// is outside the two groups' headline counts but contributes the second job
// log (Section V). scale in (0, 1] shrinks node counts and measurement
// periods proportionally for cheap test datasets; pass 1 for paper scale.
func Catalog(scale float64) []SystemConfig {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	nodes := func(n int) int {
		v := int(float64(n) * scale)
		if v < 4 {
			v = 4
		}
		return v
	}
	// shrinkPeriod keeps the end date and pulls the start forward.
	shrink := func(start, end time.Time) trace.Interval {
		d := end.Sub(start)
		return trace.Interval{Start: end.Add(-time.Duration(float64(d) * scale)), End: end}
	}
	mk := func(id int, g trace.Group, n, ppn int, start, end time.Time) trace.SystemInfo {
		return trace.SystemInfo{
			ID: id, Group: g, Nodes: nodes(n), ProcsPerNode: ppn,
			Period: shrink(start, end),
		}
	}
	return []SystemConfig{
		// Group-2: NUMA systems, few nodes, 128 processors per node.
		{Info: mk(2, trace.Group2, 44, 128, date(1996, 1, 1), date(2005, 11, 1))},
		{Info: mk(16, trace.Group2, 16, 128, date(1996, 6, 1), date(2002, 6, 1))},
		{Info: mk(23, trace.Group2, 10, 128, date(1997, 1, 1), date(2001, 1, 1))},
		// Group-1: SMP systems, 4 processors per node, with layouts.
		{Info: mk(3, trace.Group1, 128, 4, date(1997, 6, 1), date(2005, 11, 1)), HasLayout: true, RacksPerRow: 8},
		{Info: mk(4, trace.Group1, 64, 4, date(1997, 6, 1), date(2005, 11, 1)), HasLayout: true, RacksPerRow: 6},
		{Info: mk(5, trace.Group1, 64, 4, date(1998, 1, 1), date(2005, 11, 1)), HasLayout: true, RacksPerRow: 6},
		{Info: mk(6, trace.Group1, 32, 4, date(1998, 6, 1), date(2005, 11, 1)), HasLayout: true, RacksPerRow: 4},
		{
			Info:      mk(8, trace.Group1, 256, 4, date(1996, 10, 1), date(2001, 10, 1)),
			HasLayout: true, RacksPerRow: 10,
			HasJobs: true, JobTarget: int(140000 * scale),
		},
		{Info: mk(18, trace.Group1, 1024, 4, date(2001, 10, 1), date(2005, 11, 1)), HasLayout: true, RacksPerRow: 16},
		{Info: mk(19, trace.Group1, 1024, 4, date(2002, 4, 1), date(2005, 11, 1)), HasLayout: true, RacksPerRow: 16},
		{
			Info:      mk(20, trace.Group1, 512, 4, date(2003, 1, 1), date(2005, 11, 1)),
			HasLayout: true, RacksPerRow: 12,
			HasJobs: true, JobTarget: int(90000 * scale),
			HasTemps: true,
		},
	}
}
