// Package trace defines the data model for HPC failure-log analysis: node
// outage records with a LANL-style root-cause taxonomy, job (usage) records,
// temperature samples, unscheduled-maintenance events, and neutron-monitor
// samples, together with codecs and time/node indexes over them.
//
// The schema mirrors the publicly released Los Alamos National Laboratory
// operational data that the DSN'13 study ("Reading between the lines of
// failure logs") is based on: every record carries a system ID, a node ID
// within the system, and a timestamp; failures carry one of six high-level
// root-cause categories plus, where applicable, a more detailed hardware,
// software, or environment subtype.
package trace

import (
	"fmt"
	"strings"
	"time"
)

// Group identifies the hardware architecture group a system belongs to.
// The DSN'13 study splits the ten LANL systems into two groups.
type Group int

const (
	// Group1 systems are built from 4-way SMP nodes (LANL IDs 3, 4, 5, 6,
	// 18, 19, 20): many nodes, few processors per node.
	Group1 Group = iota + 1
	// Group2 systems are built from large NUMA nodes (LANL IDs 2, 16, 23):
	// few nodes, typically 128 processors per node.
	Group2
)

// String returns the conventional name of the group.
func (g Group) String() string {
	switch g {
	case Group1:
		return "group-1"
	case Group2:
		return "group-2"
	default:
		return fmt.Sprintf("group(%d)", int(g))
	}
}

// Category is the high-level root cause of a node outage. The six values
// correspond to the categories used by LANL operations staff.
type Category int

const (
	// Environment covers facility-level problems: power outages, power
	// spikes, UPS failures, chiller failures and similar.
	Environment Category = iota + 1
	// Hardware covers component faults inside a node (CPU, DIMM, node
	// board, power supply, fan, ...).
	Hardware
	// Human covers operator and administrator errors.
	Human
	// Network covers interconnect and NIC problems.
	Network
	// Software covers system-software problems (OS, parallel/cluster file
	// systems, distributed storage, patching, ...).
	Software
	// Undetermined marks outages whose root cause was never established.
	Undetermined
)

// Categories lists all six root-cause categories in canonical order, the
// order used by the paper's figures (ENV, HW, HUMAN, NET, SW, UNDET is the
// bar order of Figure 1; we keep declaration order and expose the figure
// order via FigureOrder).
var Categories = []Category{Environment, Hardware, Human, Network, Software, Undetermined}

// FigureOrder lists the categories in the order the paper's bar charts use.
var FigureOrder = []Category{Environment, Hardware, Human, Network, Undetermined, Software}

// String returns the short label used in the paper's figures.
func (c Category) String() string {
	switch c {
	case Environment:
		return "ENV"
	case Hardware:
		return "HW"
	case Human:
		return "HUMAN"
	case Network:
		return "NET"
	case Software:
		return "SW"
	case Undetermined:
		return "UNDET"
	default:
		return fmt.Sprintf("CAT(%d)", int(c))
	}
}

// ParseCategory converts a label (as produced by Category.String) back to a
// Category. It accepts both the figure labels and full lowercase names.
func ParseCategory(s string) (Category, error) {
	switch s {
	case "ENV", "environment":
		return Environment, nil
	case "HW", "hardware":
		return Hardware, nil
	case "HUMAN", "human":
		return Human, nil
	case "NET", "network":
		return Network, nil
	case "SW", "software":
		return Software, nil
	case "UNDET", "undetermined":
		return Undetermined, nil
	default:
		return 0, fmt.Errorf("unknown failure category %q", s)
	}
}

// HWComponent is the hardware component responsible for a Hardware failure,
// when known. The component set follows the breakdowns in the paper's
// Figures 10 and 13.
type HWComponent int

const (
	// HWUnknown marks hardware failures without component attribution.
	HWUnknown HWComponent = iota
	// CPU failures: processor faults, usually uncorrectable corruption.
	CPU
	// Memory failures: DIMM faults beyond ECC correction.
	Memory
	// NodeBoard failures: motherboard / node-board faults.
	NodeBoard
	// PowerSupply failures: faults of a node's power supply unit.
	PowerSupply
	// Fan failures: node or enclosure fan faults.
	Fan
	// MSCBoard failures: module service controller board faults.
	MSCBoard
	// Midplane failures: chassis midplane faults.
	Midplane
	// NIC failures: network-interface hardware faults attributed to the
	// node's hardware rather than the fabric.
	NIC
	// OtherHW collects the remaining attributed hardware faults.
	OtherHW
)

// HWComponents lists the attributable components in canonical order.
var HWComponents = []HWComponent{CPU, Memory, NodeBoard, PowerSupply, Fan, MSCBoard, Midplane, NIC, OtherHW}

// String returns the component label used in the paper's figures.
func (h HWComponent) String() string {
	switch h {
	case HWUnknown:
		return "HW?"
	case CPU:
		return "CPU"
	case Memory:
		return "Memory"
	case NodeBoard:
		return "NodeBoard"
	case PowerSupply:
		return "PowerSupply"
	case Fan:
		return "Fan"
	case MSCBoard:
		return "MSCBoard"
	case Midplane:
		return "MidPlane"
	case NIC:
		return "NIC"
	case OtherHW:
		return "OtherHW"
	default:
		return fmt.Sprintf("HW(%d)", int(h))
	}
}

// ParseHWComponent converts a label back to an HWComponent.
func ParseHWComponent(s string) (HWComponent, error) {
	switch s {
	case "", "HW?":
		return HWUnknown, nil
	case "CPU":
		return CPU, nil
	case "Memory":
		return Memory, nil
	case "NodeBoard":
		return NodeBoard, nil
	case "PowerSupply":
		return PowerSupply, nil
	case "Fan":
		return Fan, nil
	case "MSCBoard":
		return MSCBoard, nil
	case "MidPlane":
		return Midplane, nil
	case "NIC":
		return NIC, nil
	case "OtherHW":
		return OtherHW, nil
	default:
		return 0, fmt.Errorf("unknown hardware component %q", s)
	}
}

// SWClass is the software subsystem responsible for a Software failure, when
// known. The class set follows the breakdown in the paper's Figure 11.
type SWClass int

const (
	// SWUnknown marks software failures without subsystem attribution.
	SWUnknown SWClass = iota
	// DST: the distributed storage system.
	DST
	// OS: the operating system.
	OS
	// PFS: the parallel file system.
	PFS
	// CFS: the cluster file system.
	CFS
	// PatchInstall: problems caused by patch installation.
	PatchInstall
	// OtherSW collects the remaining attributed software faults.
	OtherSW
)

// SWClasses lists the attributable software classes in canonical order.
var SWClasses = []SWClass{DST, OtherSW, PatchInstall, OS, PFS, CFS}

// String returns the label used in the paper's Figure 11.
func (s SWClass) String() string {
	switch s {
	case SWUnknown:
		return "SW?"
	case DST:
		return "DST"
	case OS:
		return "OS"
	case PFS:
		return "PFS"
	case CFS:
		return "CFS"
	case PatchInstall:
		return "PatchInstl"
	case OtherSW:
		return "OtherSW"
	default:
		return fmt.Sprintf("SW(%d)", int(s))
	}
}

// ParseSWClass converts a label back to an SWClass.
func ParseSWClass(s string) (SWClass, error) {
	switch s {
	case "", "SW?":
		return SWUnknown, nil
	case "DST":
		return DST, nil
	case "OS":
		return OS, nil
	case "PFS":
		return PFS, nil
	case "CFS":
		return CFS, nil
	case "PatchInstl":
		return PatchInstall, nil
	case "OtherSW":
		return OtherSW, nil
	default:
		return 0, fmt.Errorf("unknown software class %q", s)
	}
}

// EnvClass is the facility-level subtype of an Environment failure. The
// class set follows the breakdown in the paper's Figure 9.
type EnvClass int

const (
	// EnvUnknown marks environment failures without subtype attribution.
	EnvUnknown EnvClass = iota
	// PowerOutage: loss of facility power.
	PowerOutage
	// PowerSpike: transient over-voltage events.
	PowerSpike
	// UPS: failures of the uninterruptible power supply.
	UPS
	// Chillers: failures of the machine-room chiller system.
	Chillers
	// OtherEnv collects the remaining environment faults.
	OtherEnv
)

// EnvClasses lists the environment subtypes in canonical order (the order of
// the Figure 9 breakdown).
var EnvClasses = []EnvClass{PowerOutage, PowerSpike, UPS, Chillers, OtherEnv}

// String returns the label used in the paper's Figure 9.
func (e EnvClass) String() string {
	switch e {
	case EnvUnknown:
		return "ENV?"
	case PowerOutage:
		return "PowerOutage"
	case PowerSpike:
		return "PowerSpike"
	case UPS:
		return "UPS"
	case Chillers:
		return "Chillers"
	case OtherEnv:
		return "Environment"
	default:
		return fmt.Sprintf("ENV(%d)", int(e))
	}
}

// ParseEnvClass converts a label back to an EnvClass.
func ParseEnvClass(s string) (EnvClass, error) {
	switch s {
	case "", "ENV?":
		return EnvUnknown, nil
	case "PowerOutage":
		return PowerOutage, nil
	case "PowerSpike":
		return PowerSpike, nil
	case "UPS":
		return UPS, nil
	case "Chillers":
		return Chillers, nil
	case "Environment":
		return OtherEnv, nil
	default:
		return 0, fmt.Errorf("unknown environment class %q", s)
	}
}

// Failure is a single node-outage record.
type Failure struct {
	// System is the LANL-style numeric system ID.
	System int
	// Node is the node ID within the system, starting at 0.
	Node int
	// Time is when the outage began.
	Time time.Time
	// Category is the high-level root cause.
	Category Category
	// HW is the responsible component for Hardware failures; HWUnknown
	// otherwise.
	HW HWComponent
	// SW is the responsible subsystem for Software failures; SWUnknown
	// otherwise.
	SW SWClass
	// Env is the facility subtype for Environment failures; EnvUnknown
	// otherwise.
	Env EnvClass
	// Downtime is how long the node was out, when recorded.
	Downtime time.Duration
}

// SubtypeLabel returns the most specific label available for the failure:
// the hardware component, software class, or environment subtype when the
// category carries one, and the category label otherwise.
func (f Failure) SubtypeLabel() string {
	switch f.Category {
	case Hardware:
		if f.HW != HWUnknown {
			return f.HW.String()
		}
	case Software:
		if f.SW != SWUnknown {
			return f.SW.String()
		}
	case Environment:
		if f.Env != EnvUnknown {
			return f.Env.String()
		}
	}
	return f.Category.String()
}

// Job is a single job record from a system's usage log.
type Job struct {
	// System is the system the job ran on.
	System int
	// ID is the job's unique identifier within the system's log.
	ID int64
	// User identifies the submitting user (anonymized numeric ID).
	User int
	// Submit is when the job entered the queue.
	Submit time.Time
	// Dispatch is when the job was dispatched from the queue to run.
	Dispatch time.Time
	// End is when the job finished.
	End time.Time
	// Procs is the number of processors the job requested.
	Procs int
	// Nodes lists the node IDs the job was assigned to.
	Nodes []int
	// FailedByNode reports whether the job was terminated by a failure of
	// one of its nodes (as opposed to finishing or failing on its own).
	FailedByNode bool
}

// Runtime returns the job's execution time (End minus Dispatch). It returns
// zero for malformed records where End precedes Dispatch.
func (j Job) Runtime() time.Duration {
	if j.End.Before(j.Dispatch) {
		return 0
	}
	return j.End.Sub(j.Dispatch)
}

// ProcDays returns the job's consumption in processor-days, the usage unit
// of the paper's Section VI.
func (j Job) ProcDays() float64 {
	return float64(j.Procs) * j.Runtime().Hours() / 24
}

// TempSample is one periodic motherboard-sensor temperature reading.
type TempSample struct {
	System int
	Node   int
	Time   time.Time
	// Celsius is the ambient temperature reported by the sensor.
	Celsius float64
}

// HighTempThreshold is the severe-temperature warning threshold used by the
// paper's num_hightemp regression variable (Table I): 40 degrees Celsius.
const HighTempThreshold = 40.0

// MaintenanceEvent records a maintenance action on a node.
type MaintenanceEvent struct {
	System int
	Node   int
	Time   time.Time
	// Scheduled distinguishes planned maintenance from unscheduled
	// (reactive) downtime; the paper studies the unscheduled kind.
	Scheduled bool
	// HardwareRelated reports whether the action addressed a hardware
	// problem.
	HardwareRelated bool
}

// NeutronSample is one neutron-monitor reading, following the 1-minute
// resolution counts from the Climax, Colorado station used in Section IX.
type NeutronSample struct {
	Time time.Time
	// CountsPerMinute is the high-energy neutron count rate.
	CountsPerMinute float64
}

// Interval is a right-open time interval [Start, End).
type Interval struct {
	Start time.Time
	End   time.Time
}

// Duration returns End minus Start, or zero for inverted intervals.
func (iv Interval) Duration() time.Duration {
	if iv.End.Before(iv.Start) {
		return 0
	}
	return iv.End.Sub(iv.Start)
}

// Contains reports whether t falls inside the right-open interval.
func (iv Interval) Contains(t time.Time) bool {
	return !t.Before(iv.Start) && t.Before(iv.End)
}

// Overlaps reports whether the two right-open intervals share any instant.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start.Before(other.End) && other.Start.Before(iv.End)
}

// Standard analysis windows used throughout the paper.
const (
	// Day is the 24-hour window.
	Day = 24 * time.Hour
	// Week is the 7-day window.
	Week = 7 * Day
	// Month is approximated as 30 days, matching the paper's usage of
	// "month" as a fixed-length window.
	Month = 30 * Day
)

// maxWindow bounds ParseWindow: no analysis window spans more than the
// decade a failure log covers.
const maxWindow = 10 * 365 * Day

// ParseWindow parses an analysis window: the paper's names day, week and
// month (any case) or a Go duration in (0, 10 years].
func ParseWindow(s string) (time.Duration, error) {
	switch strings.ToLower(s) {
	case "day":
		return Day, nil
	case "week":
		return Week, nil
	case "month":
		return Month, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad window %q (use day, week, month, or a duration)", s)
	}
	if d <= 0 || d > maxWindow {
		return 0, fmt.Errorf("window %v out of range", d)
	}
	return d, nil
}

// WindowName returns the paper's name for one of the standard windows, or a
// duration string for any other length.
func WindowName(w time.Duration) string {
	switch w {
	case Day:
		return "day"
	case Week:
		return "week"
	case Month:
		return "month"
	default:
		return w.String()
	}
}
