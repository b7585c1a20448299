// Package lanl imports the publicly released Los Alamos National Laboratory
// operational data ("Operational Data to Support and Enable Computer
// Science Research", LA-UR-05-7318 — the dataset behind the DSN'13 study)
// into the trace schema, so the analyses in this repository run on the real
// records as well as on synthetic ones.
//
// The release is a set of CSV tables whose exact headers have varied across
// mirrors, so the importer is driven by a Mapping: a declaration of which
// column holds which field, plus the timestamp layout. DefaultMapping
// matches the headers of the original failure-data release; adjust it if
// your copy differs. Root causes appear as one free-text subcategory per
// high-level category column (e.g. the "Hardware" column holding "Memory
// Dimm"); the importer keyword-matches those strings onto the trace
// taxonomy and keeps unmatched text as the generic subtype.
package lanl

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/validate"
)

// Mapping declares the column layout of a LANL-style failure table.
type Mapping struct {
	// System, Node are the column names of the system ID and node number.
	System string
	Node   string
	// Started and Fixed are the outage start and repair timestamps.
	Started string
	Fixed   string
	// Downtime optionally names a column with the outage length in
	// minutes; when empty (or the cell is blank) the downtime is derived
	// from Fixed minus Started.
	Downtime string
	// RootCauses maps each high-level category to the column holding its
	// subcategory text. For a given record exactly one of these columns
	// is expected to be non-empty.
	RootCauses map[trace.Category]string
	// TimeLayouts are tried in order when parsing timestamps.
	TimeLayouts []string
}

// DefaultMapping matches the headers of the public LANL failure release.
func DefaultMapping() Mapping {
	return Mapping{
		System:   "System",
		Node:     "nodenumz",
		Started:  "Prob Started",
		Fixed:    "Prob Fixed",
		Downtime: "Down Time",
		RootCauses: map[trace.Category]string{
			trace.Environment:  "Facilities",
			trace.Hardware:     "Hardware",
			trace.Human:        "Human Error",
			trace.Network:      "Network",
			trace.Software:     "Software",
			trace.Undetermined: "Undetermined",
		},
		TimeLayouts: []string{
			"01/02/2006 15:04",
			"1/2/2006 15:04",
			"2006-01-02 15:04:05",
			time.RFC3339,
		},
	}
}

// ErrBadHeader is returned when required columns are missing.
var ErrBadHeader = errors.New("lanl: required column missing from header")

// Issue records one non-fatal import problem (a skipped row).
type Issue struct {
	Line int
	Err  error
	// class attributes the problem to the validation taxonomy.
	class validate.Class
}

// Result bundles imported failures with per-row issues.
type Result struct {
	Failures []trace.Failure
	// Lines holds the 1-based CSV line of each imported failure, parallel
	// to Failures.
	Lines  []int
	Issues []Issue
}

// ImportFailures parses a LANL-style failure CSV. Rows that cannot be
// parsed are skipped and reported in Result.Issues rather than aborting the
// import — real field data is never perfectly clean.
func ImportFailures(r io.Reader, m Mapping) (*Result, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("lanl: read header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, h := range header {
		col[normalize(h)] = i
	}
	need := func(name string) (int, error) {
		if name == "" {
			return -1, nil
		}
		i, ok := col[normalize(name)]
		if !ok {
			return -1, fmt.Errorf("%w: %q", ErrBadHeader, name)
		}
		return i, nil
	}
	sysIdx, err := need(m.System)
	if err != nil {
		return nil, err
	}
	nodeIdx, err := need(m.Node)
	if err != nil {
		return nil, err
	}
	startIdx, err := need(m.Started)
	if err != nil {
		return nil, err
	}
	fixedIdx, _ := need(m.Fixed) // optional
	downIdx, _ := need(m.Downtime)
	// Canonical category order, not map order, so a header missing several
	// mapped columns always names the same one.
	causeIdx := make(map[trace.Category]int, len(m.RootCauses))
	for _, cat := range trace.Categories {
		name, ok := m.RootCauses[cat]
		if !ok {
			continue
		}
		i, err := need(name)
		if err != nil {
			return nil, err
		}
		causeIdx[cat] = i
	}
	if len(causeIdx) == 0 {
		return nil, fmt.Errorf("%w: no root-cause columns mapped", ErrBadHeader)
	}

	out := &Result{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			out.Issues = append(out.Issues, Issue{Line: line, Err: err, class: validate.BadRow})
			continue
		}
		f, class, err := parseRow(rec, m, sysIdx, nodeIdx, startIdx, fixedIdx, downIdx, causeIdx)
		if err != nil {
			out.Issues = append(out.Issues, Issue{Line: line, Err: err, class: class})
			continue
		}
		out.Failures = append(out.Failures, f)
		out.Lines = append(out.Lines, line)
	}
}

// parseRow decodes one record, attributing a failure to its validation
// class: timestamp problems are bad timestamps, everything else a bad field.
func parseRow(rec []string, m Mapping, sysIdx, nodeIdx, startIdx, fixedIdx, downIdx int, causeIdx map[trace.Category]int) (trace.Failure, validate.Class, error) {
	var f trace.Failure
	get := func(i int) string {
		if i < 0 || i >= len(rec) {
			return ""
		}
		return strings.TrimSpace(rec[i])
	}
	var err error
	if f.System, err = strconv.Atoi(get(sysIdx)); err != nil {
		return f, validate.BadField, fmt.Errorf("system: %w", err)
	}
	if f.Node, err = strconv.Atoi(get(nodeIdx)); err != nil {
		return f, validate.BadField, fmt.Errorf("node: %w", err)
	}
	if f.Time, err = parseTime(get(startIdx), m.TimeLayouts); err != nil {
		return f, validate.BadTimestamp, fmt.Errorf("started: %w", err)
	}
	// Downtime: explicit minutes column first, then fixed-started.
	if s := get(downIdx); s != "" {
		mins, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return f, validate.BadField, fmt.Errorf("downtime: %w", err)
		}
		f.Downtime = time.Duration(mins * float64(time.Minute))
	} else if s := get(fixedIdx); s != "" {
		fixed, err := parseTime(s, m.TimeLayouts)
		if err != nil {
			return f, validate.BadTimestamp, fmt.Errorf("fixed: %w", err)
		}
		if fixed.After(f.Time) {
			f.Downtime = fixed.Sub(f.Time)
		}
	}
	// Root cause: the single non-empty category column wins; ties go to
	// the first in canonical category order (mirrors the LANL convention
	// of one classification per record).
	for _, cat := range trace.Categories {
		i, ok := causeIdx[cat]
		if !ok {
			continue
		}
		text := get(i)
		if text == "" {
			continue
		}
		f.Category = cat
		applySubtype(&f, text)
		return f, 0, nil
	}
	return f, validate.BadField, errors.New("no root cause recorded")
}

func parseTime(s string, layouts []string) (time.Time, error) {
	if s == "" {
		return time.Time{}, errors.New("empty timestamp")
	}
	for _, l := range layouts {
		if t, err := time.Parse(l, s); err == nil {
			return t.UTC(), nil
		}
	}
	return time.Time{}, fmt.Errorf("unparseable timestamp %q", s)
}

func normalize(s string) string {
	return strings.ToLower(strings.Join(strings.Fields(s), " "))
}

// applySubtype keyword-matches the free-text subcategory onto the trace
// taxonomy. Matching is deliberately permissive: LANL operators wrote
// variants like "Memory Dimm", "DIMM", "CPU", "Power Supply", "Power
// Outage", "San Fan", etc.
func applySubtype(f *trace.Failure, text string) {
	t := normalize(text)
	has := func(subs ...string) bool {
		for _, s := range subs {
			if strings.Contains(t, s) {
				return true
			}
		}
		return false
	}
	switch f.Category {
	case trace.Hardware:
		switch {
		case has("dimm", "memory", "simm", "ram"):
			f.HW = trace.Memory
		case has("cpu", "processor"):
			f.HW = trace.CPU
		case has("power supply", "power-supply", "psu"):
			f.HW = trace.PowerSupply
		case has("fan", "blower"):
			f.HW = trace.Fan
		case has("msc"):
			f.HW = trace.MSCBoard
		case has("midplane", "mid-plane", "mid plane"):
			f.HW = trace.Midplane
		case has("node board", "nodeboard", "motherboard", "system board", "mainboard"):
			f.HW = trace.NodeBoard
		case has("nic", "ethernet", "interface card", "adapter"):
			f.HW = trace.NIC
		default:
			f.HW = trace.OtherHW
		}
	case trace.Software:
		switch {
		case has("dst", "distributed storage"):
			f.SW = trace.DST
		case has("parallel file", "pfs", "scratch"):
			f.SW = trace.PFS
		case has("cluster file", "cfs"):
			f.SW = trace.CFS
		case has("patch", "upgrade"):
			f.SW = trace.PatchInstall
		case has("os", "kernel", "operating system"):
			f.SW = trace.OS
		default:
			f.SW = trace.OtherSW
		}
	case trace.Environment:
		switch {
		case has("outage", "power loss", "loss of power"):
			f.Env = trace.PowerOutage
		case has("spike", "surge", "glitch"):
			f.Env = trace.PowerSpike
		case has("ups"):
			f.Env = trace.UPS
		case has("chiller", "cooling", "a/c", "air cond"):
			f.Env = trace.Chillers
		default:
			f.Env = trace.OtherEnv
		}
	}
}

// NodeMeta carries per-node metadata from the release tables (install and
// production dates, node purpose), used to build SystemInfo records.
type NodeMeta struct {
	System       int
	Node         int
	Production   time.Time
	Decommission time.Time
}

// BuildSystems derives SystemInfo records from imported failures: node
// counts from the highest node ID seen, measurement periods from the first
// and last record per system, with the given architecture-group assignment
// (group-2 for the listed NUMA system IDs; everything else group-1).
// ProcsPerNode follows the study's convention (4 for group-1 SMPs, 128 for
// group-2 NUMA nodes).
func BuildSystems(failures []trace.Failure, group2 map[int]bool) []trace.SystemInfo {
	type agg struct {
		maxNode     int
		first, last time.Time
	}
	bySys := make(map[int]*agg)
	for _, f := range failures {
		a, ok := bySys[f.System]
		if !ok {
			a = &agg{maxNode: f.Node, first: f.Time, last: f.Time}
			bySys[f.System] = a
			continue
		}
		if f.Node > a.maxNode {
			a.maxNode = f.Node
		}
		if f.Time.Before(a.first) {
			a.first = f.Time
		}
		if f.Time.After(a.last) {
			a.last = f.Time
		}
	}
	out := make([]trace.SystemInfo, 0, len(bySys))
	for id, a := range bySys {
		info := trace.SystemInfo{
			ID:           id,
			Group:        trace.Group1,
			Nodes:        a.maxNode + 1,
			ProcsPerNode: 4,
			Period: trace.Interval{
				Start: a.first.Add(-time.Hour),
				End:   a.last.Add(time.Hour),
			},
		}
		if group2[id] {
			info.Group = trace.Group2
			info.ProcsPerNode = 128
		}
		out = append(out, info)
	}
	return out
}

// StudyGroup2 lists the group-2 (NUMA) system IDs of the DSN'13 study.
var StudyGroup2 = map[int]bool{2: true, 16: true, 23: true}

// ImportDataset imports a failure table and assembles a ready-to-analyze
// dataset (sorted, with derived SystemInfo records).
func ImportDataset(r io.Reader, m Mapping) (*trace.Dataset, *Result, error) {
	res, err := ImportFailures(r, m)
	if err != nil {
		return nil, nil, err
	}
	if len(res.Failures) == 0 {
		return nil, res, errors.New("lanl: no importable failure records")
	}
	ds := &trace.Dataset{
		Systems:  BuildSystems(res.Failures, StudyGroup2),
		Failures: res.Failures,
	}
	ds.Sort()
	return ds, res, nil
}

// ImportFile is the table name diagnostics from the policy-aware importer
// anchor to.
const ImportFile = "lanl-failures"

// ImportDatasetWith imports a failure table under a validation policy. On
// top of the row-level import it classifies every skipped row into the
// validation taxonomy, applies the policy's plausibility checks and repairs,
// runs the cross-record sanitizer (duplicates, overlapping outages) against
// the derived system catalog, and enforces the policy's error budget.
// Strict mode aborts on the first problem. The dataset and report are
// returned even when only the budget check fails, so callers can inspect
// what loaded.
func ImportDatasetWith(r io.Reader, m Mapping, p validate.Policy) (*trace.Dataset, *validate.Report, error) {
	rep := &validate.Report{}
	res, err := ImportFailures(r, m)
	if err != nil {
		return nil, rep, err
	}
	rep.Scan(ImportFile, len(res.Failures)+len(res.Issues))
	for _, is := range res.Issues {
		if p.Mode == validate.Strict {
			return nil, rep, fmt.Errorf("%s:%d: %v", ImportFile, is.Line, is.Err)
		}
		rep.Skip(ImportFile)
		rep.Add(validate.Diagnostic{File: ImportFile, Line: is.Line,
			Class: is.class, Severity: validate.Error, Msg: is.Err.Error()})
	}
	kept := make([]trace.Failure, 0, len(res.Failures))
	lines := make([]int, 0, len(res.Failures))
	for i, f := range res.Failures {
		line := 0
		if i < len(res.Lines) {
			line = res.Lines[i]
		}
		f, diags := trace.CheckFailure(f, p)
		dead, fixed := false, false
		for _, d := range diags {
			d.File, d.Line = ImportFile, line
			if d.Severity == validate.Error {
				dead = true
				if p.Mode == validate.Strict {
					return nil, rep, fmt.Errorf("%s:%d: [%s] %s", ImportFile, line, d.Class, d.Msg)
				}
			}
			fixed = fixed || d.Repaired
			rep.Add(d)
		}
		if dead {
			rep.Skip(ImportFile)
			continue
		}
		if fixed {
			rep.Repair(ImportFile)
		}
		kept = append(kept, f)
		lines = append(lines, line)
	}
	if len(kept) == 0 {
		return nil, rep, errors.New("lanl: no importable failure records")
	}
	systems := BuildSystems(kept, StudyGroup2)
	fs, err := trace.SanitizeFailures(ImportFile, kept, lines, systems, p, rep)
	if err != nil {
		return nil, rep, err
	}
	ds := &trace.Dataset{Systems: systems, Failures: fs}
	ds.Sort()
	return ds, rep, p.CheckBudget(rep)
}
