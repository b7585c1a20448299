package trace

import (
	"fmt"
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/layout"
)

// SystemInfo describes one system covered by a dataset.
type SystemInfo struct {
	// ID is the LANL-style numeric system ID.
	ID int
	// Group is the hardware architecture group.
	Group Group
	// Nodes is the number of nodes in the system.
	Nodes int
	// ProcsPerNode is the processor count of each node.
	ProcsPerNode int
	// Period is the measurement period the logs cover.
	Period Interval
}

// Procs returns the total processor count of the system.
func (s SystemInfo) Procs() int { return s.Nodes * s.ProcsPerNode }

// NodeDays returns the total node-days of observation the system
// contributes: nodes times measurement-period length in days.
func (s SystemInfo) NodeDays() float64 {
	return float64(s.Nodes) * s.Period.Duration().Hours() / 24
}

// Dataset bundles every log type for a collection of systems. Record slices
// are kept sorted by time (per Sort); analyses rely on that order.
type Dataset struct {
	// Systems describes the systems covered, ascending by ID.
	Systems []SystemInfo
	// Failures holds all node-outage records across systems.
	Failures []Failure
	// Jobs holds usage logs (available only for some systems).
	Jobs []Job
	// Temps holds periodic temperature samples (available only for some
	// systems).
	Temps []TempSample
	// Maintenance holds maintenance events.
	Maintenance []MaintenanceEvent
	// Neutrons holds the external neutron-monitor series.
	Neutrons []NeutronSample
	// Layouts maps system ID to machine-room layout, for systems that
	// have layout files.
	Layouts map[int]*layout.Layout
}

// System returns the SystemInfo with the given ID.
func (d *Dataset) System(id int) (SystemInfo, bool) {
	for _, s := range d.Systems {
		if s.ID == id {
			return s, true
		}
	}
	return SystemInfo{}, false
}

// SystemIDs returns the covered system IDs in ascending order.
func (d *Dataset) SystemIDs() []int {
	ids := make([]int, len(d.Systems))
	for i, s := range d.Systems {
		ids[i] = s.ID
	}
	sort.Ints(ids)
	return ids
}

// GroupSystems returns the systems belonging to the given group.
func (d *Dataset) GroupSystems(g Group) []SystemInfo {
	var out []SystemInfo
	for _, s := range d.Systems {
		if s.Group == g {
			out = append(out, s)
		}
	}
	return out
}

// Sort orders every record slice by time (breaking ties by system then
// node), and Systems by ID. Analyses assume this order.
func (d *Dataset) Sort() {
	sort.Slice(d.Systems, func(i, j int) bool { return d.Systems[i].ID < d.Systems[j].ID })
	sort.Slice(d.Failures, func(i, j int) bool {
		a, b := d.Failures[i], d.Failures[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.System != b.System {
			return a.System < b.System
		}
		return a.Node < b.Node
	})
	sort.Slice(d.Jobs, func(i, j int) bool {
		a, b := d.Jobs[i], d.Jobs[j]
		if !a.Submit.Equal(b.Submit) {
			return a.Submit.Before(b.Submit)
		}
		return a.ID < b.ID
	})
	sort.Slice(d.Temps, func(i, j int) bool {
		a, b := d.Temps[i], d.Temps[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.System != b.System {
			return a.System < b.System
		}
		return a.Node < b.Node
	})
	sort.Slice(d.Maintenance, func(i, j int) bool {
		a, b := d.Maintenance[i], d.Maintenance[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.System != b.System {
			return a.System < b.System
		}
		return a.Node < b.Node
	})
	sort.Slice(d.Neutrons, func(i, j int) bool {
		return d.Neutrons[i].Time.Before(d.Neutrons[j].Time)
	})
}

// FilterSystems returns a shallow copy of the dataset restricted to the
// given system IDs. The neutron series, being external, is kept as-is.
func (d *Dataset) FilterSystems(ids ...int) *Dataset {
	want := make(map[int]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	out := &Dataset{Neutrons: d.Neutrons, Layouts: make(map[int]*layout.Layout)}
	for _, s := range d.Systems {
		if want[s.ID] {
			out.Systems = append(out.Systems, s)
		}
	}
	for _, f := range d.Failures {
		if want[f.System] {
			out.Failures = append(out.Failures, f)
		}
	}
	for _, j := range d.Jobs {
		if want[j.System] {
			out.Jobs = append(out.Jobs, j)
		}
	}
	for _, t := range d.Temps {
		if want[t.System] {
			out.Temps = append(out.Temps, t)
		}
	}
	for _, m := range d.Maintenance {
		if want[m.System] {
			out.Maintenance = append(out.Maintenance, m)
		}
	}
	for id, l := range d.Layouts {
		if want[id] {
			out.Layouts[id] = l
		}
	}
	return out
}

// Served returns a shallow copy of the dataset holding only the served
// tables — systems, failures and layouts, the tables a failure-risk
// server's queries read — so that holding it keeps none of the job,
// temperature, maintenance or neutron records alive.
func (d *Dataset) Served() *Dataset {
	return &Dataset{Systems: d.Systems, Failures: d.Failures, Layouts: d.Layouts}
}

// FilterGroup returns the dataset restricted to the systems of one group.
func (d *Dataset) FilterGroup(g Group) *Dataset {
	var ids []int
	for _, s := range d.Systems {
		if s.Group == g {
			ids = append(ids, s.ID)
		}
	}
	return d.FilterSystems(ids...)
}

// SystemFailures returns the failures of one system, preserving order.
func (d *Dataset) SystemFailures(id int) []Failure {
	var out []Failure
	for _, f := range d.Failures {
		if f.System == id {
			out = append(out, f)
		}
	}
	return out
}

// SystemJobs returns the jobs of one system, preserving order.
func (d *Dataset) SystemJobs(id int) []Job {
	var out []Job
	for _, j := range d.Jobs {
		if j.System == id {
			out = append(out, j)
		}
	}
	return out
}

// Validate checks dataset invariants: every record references a known
// system and an in-range node, record times fall within (a grace margin of)
// the system's measurement period, and category subtypes are consistent.
// It returns the first violation found, or nil.
func (d *Dataset) Validate() error {
	systems := make(map[int]SystemInfo, len(d.Systems))
	for _, s := range d.Systems {
		if s.Nodes <= 0 {
			return fmt.Errorf("system %d: non-positive node count %d", s.ID, s.Nodes)
		}
		if s.Group != Group1 && s.Group != Group2 {
			return fmt.Errorf("system %d: unknown group %d", s.ID, int(s.Group))
		}
		if !s.Period.End.After(s.Period.Start) {
			return fmt.Errorf("system %d: empty measurement period", s.ID)
		}
		if _, dup := systems[s.ID]; dup {
			return fmt.Errorf("duplicate system ID %d", s.ID)
		}
		systems[s.ID] = s
	}
	const grace = 0 * time.Hour
	checkRef := func(kind string, system, node int, t time.Time) error {
		s, ok := systems[system]
		if !ok {
			return fmt.Errorf("%s record references unknown system %d", kind, system)
		}
		if node < 0 || node >= s.Nodes {
			return fmt.Errorf("%s record: node %d out of range [0,%d) for system %d", kind, node, s.Nodes, system)
		}
		if t.Add(grace).Before(s.Period.Start) || t.After(s.Period.End.Add(grace)) {
			return fmt.Errorf("%s record at %s outside system %d period [%s,%s]",
				kind, t.Format(time.RFC3339), system,
				s.Period.Start.Format(time.RFC3339), s.Period.End.Format(time.RFC3339))
		}
		return nil
	}
	for i, f := range d.Failures {
		if err := checkRef("failure", f.System, f.Node, f.Time); err != nil {
			return fmt.Errorf("failures[%d]: %w", i, err)
		}
		if f.Category < Environment || f.Category > Undetermined {
			return fmt.Errorf("failures[%d]: invalid category %d", i, int(f.Category))
		}
		if f.HW != HWUnknown && f.Category != Hardware {
			return fmt.Errorf("failures[%d]: hardware component %s on %s failure", i, f.HW, f.Category)
		}
		if f.SW != SWUnknown && f.Category != Software {
			return fmt.Errorf("failures[%d]: software class %s on %s failure", i, f.SW, f.Category)
		}
		if f.Env != EnvUnknown && f.Category != Environment {
			return fmt.Errorf("failures[%d]: environment class %s on %s failure", i, f.Env, f.Category)
		}
		if f.Downtime < 0 {
			return fmt.Errorf("failures[%d]: negative downtime", i)
		}
	}
	for i, j := range d.Jobs {
		if _, ok := systems[j.System]; !ok {
			return fmt.Errorf("jobs[%d]: unknown system %d", i, j.System)
		}
		if j.Dispatch.Before(j.Submit) {
			return fmt.Errorf("jobs[%d]: dispatch before submit", i)
		}
		if j.End.Before(j.Dispatch) {
			return fmt.Errorf("jobs[%d]: end before dispatch", i)
		}
		if j.Procs <= 0 {
			return fmt.Errorf("jobs[%d]: non-positive proc count %d", i, j.Procs)
		}
		s := systems[j.System]
		for _, n := range j.Nodes {
			if n < 0 || n >= s.Nodes {
				return fmt.Errorf("jobs[%d]: node %d out of range for system %d", i, n, j.System)
			}
		}
	}
	for i, t := range d.Temps {
		if err := checkRef("temperature", t.System, t.Node, t.Time); err != nil {
			return fmt.Errorf("temps[%d]: %w", i, err)
		}
	}
	for i, m := range d.Maintenance {
		if err := checkRef("maintenance", m.System, m.Node, m.Time); err != nil {
			return fmt.Errorf("maintenance[%d]: %w", i, err)
		}
	}
	for i := 1; i < len(d.Neutrons); i++ {
		if d.Neutrons[i].Time.Before(d.Neutrons[i-1].Time) {
			return fmt.Errorf("neutrons[%d]: out of order", i)
		}
	}
	return nil
}
