package analysis

import (
	"math"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// SpaceTimePoint is one marker of the Figure 12 scatter: a power-related
// failure located in (time, node) space.
type SpaceTimePoint struct {
	// Day is the failure time in days since the system's period start.
	Day float64
	// Node is the node ID.
	Node int
	// Kind is the power-problem subtype.
	Kind trace.EnvClass
}

// SpaceTimeResult holds the Figure 12 data for one system plus summary
// statistics quantifying what the paper reads off the plot: whether events
// of a type cluster across nodes at the same time (vertical stripes) and
// whether they recur within the same node.
type SpaceTimeResult struct {
	System int
	Points []SpaceTimePoint
	// CoOccurrence[k] is the fraction of type-k failures that share a
	// calendar day with a same-type failure on ANOTHER node — near 1 for
	// outages and UPS problems, near 0 for power-supply failures.
	CoOccurrence map[trace.EnvClass]float64
	// NodeRepeat[k] is the fraction of type-k failures whose node has
	// another same-type failure at a different time — high when problems
	// recur within the same node.
	NodeRepeat map[trace.EnvClass]float64
}

// PSUClass is the sentinel subtype used for hardware power-supply failures
// in the Figure 12 scatter, which plots them alongside the three
// environment power subtypes. The value lies outside the trace.EnvClass
// enum range on purpose.
const PSUClass trace.EnvClass = 99

// SpaceTime extracts the Figure 12 scatter for one system: power outages,
// power spikes, UPS failures (environment records) and power-supply
// failures (hardware records).
func (a *Analyzer) SpaceTime(system int) SpaceTimeResult {
	info, _ := a.DS.System(system)
	out := SpaceTimeResult{
		System:       system,
		CoOccurrence: make(map[trace.EnvClass]float64),
		NodeRepeat:   make(map[trace.EnvClass]float64),
	}
	classOf := func(f trace.Failure) (trace.EnvClass, bool) {
		switch {
		case f.Category == trace.Environment && (f.Env == trace.PowerOutage || f.Env == trace.PowerSpike || f.Env == trace.UPS):
			return f.Env, true
		case f.Category == trace.Hardware && f.HW == trace.PowerSupply:
			return PSUClass, true
		default:
			return 0, false
		}
	}
	type key struct {
		cls trace.EnvClass
		day int
	}
	byDayNodes := make(map[key]map[int]bool)
	byClsNodeCount := make(map[trace.EnvClass]map[int]int)
	for _, f := range a.SystemFailures(system) {
		cls, ok := classOf(f)
		if !ok {
			continue
		}
		day := f.Time.Sub(info.Period.Start).Hours() / 24
		out.Points = append(out.Points, SpaceTimePoint{Day: day, Node: f.Node, Kind: cls})
		k := key{cls, int(day)}
		if byDayNodes[k] == nil {
			byDayNodes[k] = make(map[int]bool)
		}
		byDayNodes[k][f.Node] = true
		if byClsNodeCount[cls] == nil {
			byClsNodeCount[cls] = make(map[int]int)
		}
		byClsNodeCount[cls][f.Node]++
	}
	// Summaries.
	co := make(map[trace.EnvClass][2]int) // [with co-occurrence, total]
	rep := make(map[trace.EnvClass][2]int)
	for _, p := range out.Points {
		k := key{p.Kind, int(p.Day)}
		c := co[p.Kind]
		c[1]++
		if len(byDayNodes[k]) > 1 {
			c[0]++
		}
		co[p.Kind] = c
		r := rep[p.Kind]
		r[1]++
		if byClsNodeCount[p.Kind][p.Node] > 1 {
			r[0]++
		}
		rep[p.Kind] = r
	}
	for cls, c := range co {
		if c[1] > 0 {
			out.CoOccurrence[cls] = float64(c[0]) / float64(c[1])
		} else {
			out.CoOccurrence[cls] = math.NaN()
		}
	}
	for cls, r := range rep {
		if r[1] > 0 {
			out.NodeRepeat[cls] = float64(r[0]) / float64(r[1])
		} else {
			out.NodeRepeat[cls] = math.NaN()
		}
	}
	return out
}
