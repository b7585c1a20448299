package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/validate"
)

// This file is the dataset validation/repair engine: the one table reader
// every dataset CSV table decodes through, with line-anchored diagnostics,
// the failure plausibility rules, cross-record sanitation (duplicates,
// overlapping outages, dangling references), and the policy-aware directory
// loader.

// rowParser decodes one row whose field count the reader has checked,
// classifying every problem. The row is unusable iff a returned diagnostic
// has Error severity; what Repair fixed comes back as repaired warnings.
type rowParser[T any] func(rec []string, p validate.Policy) (T, []validate.Diagnostic)

// table is one dataset CSV table: its file name, its column names (the
// header row its writer emits) and its row parser.
type table[T any] struct {
	file    string
	columns []string
	parse   rowParser[T]
}

// fieldParser lifts a parser whose only failure is one bad field.
func fieldParser[T any](parse func([]string) (T, error)) rowParser[T] {
	return func(rec []string, _ validate.Policy) (T, []validate.Diagnostic) {
		v, err := parse(rec)
		return v, badField(err)
	}
}

// badField reports err, if any, as a row's bad field.
func badField(err error) []validate.Diagnostic {
	if err == nil {
		return nil
	}
	return []validate.Diagnostic{{Class: validate.BadField, Severity: validate.Error, Msg: err.Error()}}
}

// read is the one path from CSV bytes to records: it decodes every row of
// the table under p and hands each kept record, with its 1-based CSV line,
// to keep. Every field is scrubbed of BOM and control bytes and trimmed.
// The first row is the header iff its first field names the first column.
// Under Strict the first problem aborts with a file:line error; otherwise a
// broken row is skipped with a diagnostic per problem, scrubbed junk is an
// EncodingJunk warning (repaired under Repair), and rep tallies every data
// row scanned, skipped and repaired.
func (t table[T]) read(r io.Reader, p validate.Policy, rep *validate.Report, keep func(v T, line int)) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.LazyQuotes = p.Mode != validate.Strict
	cr.ReuseRecord = true
	// Scans are tallied once per table, not per row: each tally is a map
	// lookup.
	scanned := 0
	defer func() {
		if scanned > 0 {
			rep.Scan(t.file, scanned)
		}
	}()
	first := true
	lastOffset := int64(-1)
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			if p.Mode == validate.Strict {
				return fmt.Errorf("%s: %w", t.file, err)
			}
			line := 0
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				line = pe.StartLine
			}
			scanned++
			rep.Skip(t.file)
			rep.Add(validate.Diagnostic{File: t.file, Line: line, Class: validate.BadRow,
				Severity: validate.Error, Msg: err.Error()})
			if cr.InputOffset() == lastOffset {
				// The reader cannot advance past this error; stop rather
				// than report it forever.
				return nil
			}
			lastOffset = cr.InputOffset()
			continue
		}
		lastOffset = cr.InputOffset()
		line, _ := cr.FieldPos(0)
		junk := false
		for i := range rec {
			clean, scrubbed := validate.ScrubField(rec[i])
			rec[i] = strings.TrimSpace(clean)
			junk = junk || scrubbed
		}
		if first {
			first = false
			if strings.EqualFold(rec[0], t.columns[0]) {
				continue // header row
			}
		}
		scanned++
		var ds []validate.Diagnostic
		if junk {
			ds = append(ds, validate.Diagnostic{Class: validate.EncodingJunk, Severity: validate.Warning,
				Repaired: p.Mode == validate.Repair, Msg: "BOM or control bytes scrubbed from record"})
		}
		var v T
		if len(rec) != len(t.columns) {
			ds = append(ds, validate.Diagnostic{Class: validate.BadRow, Severity: validate.Error,
				Msg: fmt.Sprintf("want %d fields, got %d", len(t.columns), len(rec))})
		} else {
			var pds []validate.Diagnostic
			v, pds = t.parse(rec, p)
			ds = append(ds, pds...)
		}
		dead, repaired := false, false
		for _, d := range ds {
			if p.Mode == validate.Strict {
				return fmt.Errorf("%s:%d: [%s] %s", t.file, line, d.Class, d.Msg)
			}
			d.File, d.Line = t.file, line
			dead = dead || d.Severity == validate.Error
			repaired = repaired || d.Repaired
			rep.Add(d)
		}
		if dead {
			rep.Skip(t.file)
			continue
		}
		if repaired {
			rep.Repair(t.file)
		}
		keep(v, line)
	}
}

// DecodeFailuresCSV reads a failures CSV stream under a validation policy.
// It never panics on arbitrary input. Under Strict the first problem aborts
// with an error; under Lenient broken rows are skipped with one diagnostic
// each; under Repair near-miss timestamps are coerced, out-of-range
// downtimes clamped, and stray subtype labels zeroed. It returns the decoded
// failures, the 1-based CSV line of each, and the report.
func DecodeFailuresCSV(r io.Reader, p validate.Policy) ([]Failure, []int, *validate.Report, error) {
	rep := &validate.Report{}
	fs, lines, err := decodeFailures(r, 0, p, rep)
	return fs, lines, rep, err
}

// decodeFailures reads a failures table under p into rep, returning the
// kept failures and the CSV line of each; rows sizes both slices up front.
func decodeFailures(r io.Reader, rows int, p validate.Policy, rep *validate.Report) ([]Failure, []int, error) {
	fs := make([]Failure, 0, rows)
	lines := make([]int, 0, rows)
	if err := failuresTable.read(r, p, rep, func(f Failure, line int) {
		fs = append(fs, f)
		lines = append(lines, line)
	}); err != nil {
		return nil, nil, err
	}
	return fs, lines, nil
}

// parseFailure parses one 8-field failure row, classifying every problem.
// Under Repair it coerces what the repair set allows; the row is unusable
// iff any returned diagnostic has Error severity.
func parseFailure(rec []string, p validate.Policy) (Failure, []validate.Diagnostic) {
	var f Failure
	var ds []validate.Diagnostic
	fail := func(c validate.Class, format string, args ...any) {
		ds = append(ds, validate.Diagnostic{Class: c, Severity: validate.Error, Msg: fmt.Sprintf(format, args...)})
	}
	repaired := func(c validate.Class, format string, args ...any) {
		ds = append(ds, validate.Diagnostic{Class: c, Severity: validate.Warning, Repaired: true, Msg: fmt.Sprintf(format, args...)})
	}
	var err error
	if f.System, err = strconv.Atoi(rec[0]); err != nil {
		fail(validate.BadField, "system: %v", err)
	}
	if f.Node, err = strconv.Atoi(rec[1]); err != nil {
		fail(validate.BadField, "node: %v", err)
	}
	timeOK := false
	if f.Time, err = time.Parse(timeLayout, rec[2]); err == nil {
		timeOK = true
	} else if p.Mode == validate.Repair {
		if t, _, cerr := validate.CoerceTime(rec[2], timeLayout); cerr == nil {
			f.Time = t
			timeOK = true
			repaired(validate.BadTimestamp, "coerced non-canonical timestamp %q", rec[2])
		} else {
			fail(validate.BadTimestamp, "unparseable timestamp %q", rec[2])
		}
	} else {
		fail(validate.BadTimestamp, "unparseable timestamp %q", rec[2])
	}
	if timeOK {
		ds = checkEpoch(ds, f.Time, p)
	}
	catOK := false
	if f.Category, err = ParseCategory(rec[3]); err != nil {
		fail(validate.BadField, "category: %v", err)
	} else {
		catOK = true
	}
	subtype := func(name string, parse func() error, clear func(), set func() bool, want Category) {
		if err := parse(); err != nil {
			if p.Mode == validate.Repair {
				clear()
				repaired(validate.BadField, "%s: %v; subtype dropped", name, err)
			} else {
				fail(validate.BadField, "%s: %v", name, err)
			}
			return
		}
		if catOK && set() && f.Category != want {
			if p.Mode == validate.Repair {
				clear()
				repaired(validate.BadField, "%s subtype on %s failure dropped", name, f.Category)
			} else {
				fail(validate.BadField, "%s subtype on %s failure", name, f.Category)
			}
		}
	}
	subtype("hw", func() (e error) { f.HW, e = ParseHWComponent(rec[4]); return },
		func() { f.HW = HWUnknown }, func() bool { return f.HW != HWUnknown }, Hardware)
	subtype("sw", func() (e error) { f.SW, e = ParseSWClass(rec[5]); return },
		func() { f.SW = SWUnknown }, func() bool { return f.SW != SWUnknown }, Software)
	subtype("env", func() (e error) { f.Env, e = ParseEnvClass(rec[6]); return },
		func() { f.Env = EnvUnknown }, func() bool { return f.Env != EnvUnknown }, Environment)
	secs, err := strconv.ParseInt(rec[7], 10, 64)
	if err != nil {
		if fsecs, ferr := strconv.ParseFloat(rec[7], 64); ferr == nil && p.Mode == validate.Repair {
			secs = int64(fsecs)
			repaired(validate.BadField, "coerced fractional downtime %q", rec[7])
		} else {
			fail(validate.BadField, "downtime: %v", err)
			return f, ds
		}
	}
	f.Downtime, ds = checkDowntime(ds, time.Duration(secs)*time.Second, p)
	return f, ds
}

// CheckFailure applies the failure plausibility rules to one decoded
// failure: its timestamp must fall inside the policy's plausible epoch and
// its downtime be neither negative nor absurd. Repair clamps the downtime;
// an out-of-range timestamp is never repairable. The failures table and the
// LANL importer both hold their records to these rules.
func CheckFailure(f Failure, p validate.Policy) (Failure, []validate.Diagnostic) {
	ds := checkEpoch(nil, f.Time, p)
	f.Downtime, ds = checkDowntime(ds, f.Downtime, p)
	return f, ds
}

// checkEpoch appends a TimestampOutOfRange error to ds when t falls outside
// the policy's plausible epoch.
func checkEpoch(ds []validate.Diagnostic, t time.Time, p validate.Policy) []validate.Diagnostic {
	if p.InRange(t) {
		return ds
	}
	return append(ds, validate.Diagnostic{Class: validate.TimestampOutOfRange, Severity: validate.Error,
		Msg: fmt.Sprintf("timestamp %s outside plausible epoch [%s, %s)",
			t.Format(timeLayout), p.MinTime.Format(timeLayout), p.MaxTime.Format(timeLayout))})
}

// checkDowntime returns downtime d, clamped under Repair when negative or
// absurd, and appends the finding to ds.
func checkDowntime(ds []validate.Diagnostic, d time.Duration, p validate.Policy) (time.Duration, []validate.Diagnostic) {
	var c validate.Class
	var clamped time.Duration
	var fixed, failed string
	switch {
	case d < 0:
		c, clamped = validate.NegativeDowntime, 0
		fixed = fmt.Sprintf("negative downtime %s clamped to 0", d)
		failed = fmt.Sprintf("negative downtime %s", d)
	case p.AbsurdDowntime > 0 && d > p.AbsurdDowntime:
		c, clamped = validate.AbsurdDowntime, p.AbsurdDowntime
		fixed = fmt.Sprintf("downtime %s clamped to %s", d, p.AbsurdDowntime)
		failed = fmt.Sprintf("absurd downtime %s (limit %s)", d, p.AbsurdDowntime)
	default:
		return d, ds
	}
	if p.Mode == validate.Repair {
		return clamped, append(ds, validate.Diagnostic{Class: c, Severity: validate.Warning, Repaired: true, Msg: fixed})
	}
	return d, append(ds, validate.Diagnostic{Class: c, Severity: validate.Error, Msg: failed})
}

// SanitizeFailures applies the cross-record checks: references against the
// system catalog (nil disables them), exact duplicates, and overlapping
// outages of one node. file names the source table for diagnostics and
// budget tallies; lines anchors diagnostics to CSV lines (nil for in-memory
// data). Repair merges duplicates and truncates the earlier of two
// overlapping outages; Lenient skips the offending later record; Strict
// fails on the first finding. The input slice is not modified.
func SanitizeFailures(file string, failures []Failure, lines []int, systems []SystemInfo, p validate.Policy, rep *validate.Report) ([]Failure, error) {
	lineOf := func(i int) int {
		if lines != nil && i < len(lines) {
			return lines[i]
		}
		return 0
	}
	problem := func(i int, c validate.Class, repairable bool, format string, args ...any) error {
		d := validate.Diagnostic{
			File: file, Line: lineOf(i), Class: c,
			Severity: validate.Error, Msg: fmt.Sprintf(format, args...),
		}
		if p.Mode == validate.Strict {
			return fmt.Errorf("%s:%d: [%s] %s", file, d.Line, c, d.Msg)
		}
		if p.Mode == validate.Repair && repairable {
			d.Severity = validate.Warning
			d.Repaired = true
			rep.Repair(file)
		} else {
			rep.Skip(file)
		}
		rep.Add(d)
		return nil
	}

	fs := append([]Failure(nil), failures...)
	keep := make([]bool, len(fs))
	var catalog map[int]int
	if systems != nil {
		catalog = make(map[int]int, len(systems))
		for _, s := range systems {
			catalog[s.ID] = s.Nodes
		}
	}
	seen := make(map[Failure]int, len(fs))
	for i, f := range fs {
		if catalog != nil {
			nodes, ok := catalog[f.System]
			if !ok {
				if err := problem(i, validate.UnknownSystem, false, "references unknown system %d", f.System); err != nil {
					return nil, err
				}
				continue
			}
			if f.Node < 0 || f.Node >= nodes {
				if err := problem(i, validate.UnknownNode, false, "node %d out of range [0,%d) for system %d", f.Node, nodes, f.System); err != nil {
					return nil, err
				}
				continue
			}
		}
		if j, dup := seen[f]; dup {
			if err := problem(i, validate.DuplicateRecord, true, "exact duplicate of line %d", lineOf(j)); err != nil {
				return nil, err
			}
			continue
		}
		seen[f] = i
		keep[i] = true
	}

	// Overlap resolution per node, in time order (line order breaks ties so
	// the later row is always the one reported). Nodes go in the order of
	// their first record, so the findings and Strict's error are the same
	// on every run.
	byNode := make(map[NodeKey][]int)
	var nodes []NodeKey
	for i, ok := range keep {
		if ok {
			k := NodeKey{System: fs[i].System, Node: fs[i].Node}
			if _, seen := byNode[k]; !seen {
				nodes = append(nodes, k)
			}
			byNode[k] = append(byNode[k], i)
		}
	}
	for _, k := range nodes {
		idxs := byNode[k]
		sort.Slice(idxs, func(a, b int) bool {
			fa, fb := fs[idxs[a]], fs[idxs[b]]
			if !fa.Time.Equal(fb.Time) {
				return fa.Time.Before(fb.Time)
			}
			return lineOf(idxs[a]) < lineOf(idxs[b])
		})
		prev := -1
		for _, i := range idxs {
			if prev < 0 {
				prev = i
				continue
			}
			cur := fs[i]
			pf := fs[prev]
			sameStart := cur.Time.Equal(pf.Time)
			overlaps := pf.Downtime > 0 && cur.Time.Before(pf.Time.Add(pf.Downtime))
			if !sameStart && !overlaps {
				prev = i
				continue
			}
			switch {
			case p.Mode == validate.Repair && !sameStart:
				// Truncate the earlier outage so the two no longer overlap.
				fs[prev].Downtime = cur.Time.Sub(pf.Time)
				if err := problem(i, validate.OverlappingOutage, true, "overlapped outage at line %d truncated to %s", lineOf(prev), fs[prev].Downtime); err != nil {
					return nil, err
				}
				prev = i
			case p.Mode == validate.Repair:
				// Same start instant: keep the earlier row, drop this one.
				keep[i] = false
				if err := problem(i, validate.OverlappingOutage, true, "outage starts at the same instant as line %d; merged", lineOf(prev)); err != nil {
					return nil, err
				}
			case sameStart:
				// Two outages of one node starting at the same instant is a
				// data-entry artifact: Strict fails, Lenient skips the later
				// row.
				keep[i] = false
				if err := problem(i, validate.OverlappingOutage, false, "outage starts at the same instant as line %d on system %d node %d", lineOf(prev), cur.System, cur.Node); err != nil {
					return nil, err
				}
			default:
				// A node failing again while still down is physically
				// plausible (a second problem logged during the repair), so
				// Strict and Lenient keep both records and warn.
				rep.Add(validate.Diagnostic{
					File: file, Line: lineOf(i), Class: validate.OverlappingOutage,
					Severity: validate.Warning,
					Msg:      fmt.Sprintf("outage overlaps line %d on system %d node %d", lineOf(prev), cur.System, cur.Node),
				})
				prev = i
			}
		}
	}

	out := make([]Failure, 0, len(fs))
	for i, ok := range keep {
		if ok {
			out = append(out, fs[i])
		}
	}
	return out, nil
}

// SanitizeDataset validates an in-memory dataset under a policy: failures
// get the full cross-record treatment (duplicates, overlaps, references,
// downtime clamps are already a parse-time concern and are not re-checked
// here), and jobs, temperature and maintenance records referencing unknown
// systems or out-of-range nodes are dropped with diagnostics. It returns a
// sanitized copy, leaving the input unmodified.
func SanitizeDataset(ds *Dataset, p validate.Policy) (*Dataset, *validate.Report, error) {
	rep := &validate.Report{}
	out := &Dataset{
		Systems:  append([]SystemInfo(nil), ds.Systems...),
		Neutrons: append([]NeutronSample(nil), ds.Neutrons...),
		Layouts:  make(map[int]*layout.Layout, len(ds.Layouts)),
	}
	for id, l := range ds.Layouts {
		out.Layouts[id] = l
	}
	rep.Scan(FailuresFile, len(ds.Failures))
	fs, err := SanitizeFailures(FailuresFile, ds.Failures, nil, ds.Systems, p, rep)
	if err != nil {
		return nil, rep, err
	}
	out.Failures = fs

	catalog := make(map[int]int, len(ds.Systems))
	for _, s := range ds.Systems {
		catalog[s.ID] = s.Nodes
	}
	checkRef := func(kind, file string, system, node int) error {
		nodes, ok := catalog[system]
		if !ok {
			d := validate.Diagnostic{File: file, Class: validate.UnknownSystem, Severity: validate.Error,
				Msg: fmt.Sprintf("%s record references unknown system %d", kind, system)}
			if p.Mode == validate.Strict {
				return errors.New(d.Msg)
			}
			rep.Skip(file)
			rep.Add(d)
			return errSkipRecord
		}
		if node < 0 || node >= nodes {
			d := validate.Diagnostic{File: file, Class: validate.UnknownNode, Severity: validate.Error,
				Msg: fmt.Sprintf("%s record: node %d out of range [0,%d) for system %d", kind, node, nodes, system)}
			if p.Mode == validate.Strict {
				return errors.New(d.Msg)
			}
			rep.Skip(file)
			rep.Add(d)
			return errSkipRecord
		}
		return nil
	}
	for _, j := range ds.Jobs {
		rep.Scan(JobsFile, 1)
		if _, ok := catalog[j.System]; !ok {
			if p.Mode == validate.Strict {
				return nil, rep, fmt.Errorf("job %d references unknown system %d", j.ID, j.System)
			}
			rep.Skip(JobsFile)
			rep.Add(validate.Diagnostic{File: JobsFile, Class: validate.UnknownSystem, Severity: validate.Error,
				Msg: fmt.Sprintf("job %d references unknown system %d", j.ID, j.System)})
			continue
		}
		out.Jobs = append(out.Jobs, j)
	}
	for _, t := range ds.Temps {
		rep.Scan(TempsFile, 1)
		switch err := checkRef("temperature", TempsFile, t.System, t.Node); {
		case err == errSkipRecord:
		case err != nil:
			return nil, rep, err
		default:
			out.Temps = append(out.Temps, t)
		}
	}
	for _, m := range ds.Maintenance {
		rep.Scan(MaintenanceFile, 1)
		switch err := checkRef("maintenance", MaintenanceFile, m.System, m.Node); {
		case err == errSkipRecord:
		case err != nil:
			return nil, rep, err
		default:
			out.Maintenance = append(out.Maintenance, m)
		}
	}
	out.Sort()
	return out, rep, p.CheckBudget(rep)
}

// errSkipRecord is an internal sentinel: the record was rejected and
// reported, and the caller should move on.
var errSkipRecord = errors.New("skip record")

// into returns a loader that reads table t into *dst, sized for rows.
func into[T any](t table[T], dst *[]T, p validate.Policy, rep *validate.Report) func(io.Reader, int) error {
	return func(r io.Reader, rows int) error {
		*dst = make([]T, 0, rows)
		return t.read(r, p, rep, func(v T, _ int) { *dst = append(*dst, v) })
	}
}

// countRows counts f's lines through a fixed buffer — an upper bound on its
// data rows that sizes the table's slice once, where append doubling would
// copy it repeatedly — and seeks back to the start. The file is never held
// in memory whole.
func countRows(f *os.File) (int, error) {
	var buf [32 << 10]byte
	rows := 1 // a last line without a newline
	for {
		n, err := f.Read(buf[:])
		rows += bytes.Count(buf[:n], []byte{'\n'})
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	_, err := f.Seek(0, io.SeekStart)
	return rows, err
}

// LoadDirWith reads a dataset directory under a validation policy. The
// systems and failures tables are required; every other table is optional
// and degrades to an empty series with a MissingTable diagnostic. Every
// table goes through the one table reader under the policy; failures then
// get the cross-record sanitizer, with reference checks against the systems
// catalog. A dataset is returned together with the report even when the
// error budget is exceeded, so callers can inspect what loaded.
func LoadDirWith(dir string, p validate.Policy) (*Dataset, *validate.Report, error) {
	return loadDir(dir, p, false)
}

// LoadServedWith is LoadDirWith restricted to the served tables: systems,
// failures and the layouts, the tables a failure-risk server's queries
// read. The job, temperature, maintenance and neutron files are neither
// opened nor validated, so the policy and its error budget judge the served
// tables alone and the returned report says nothing of the others. Its
// dataset equals Served of LoadDirWith's over the same directory.
func LoadServedWith(dir string, p validate.Policy) (*Dataset, *validate.Report, error) {
	return loadDir(dir, p, true)
}

// loadDir is LoadDirWith, or with servedOnly LoadServedWith: one table
// list, read in order, of which servedOnly skips the optional entries (the
// served tables are the required ones, plus the layouts).
func loadDir(dir string, p validate.Policy, servedOnly bool) (*Dataset, *validate.Report, error) {
	rep := &validate.Report{}
	d := &Dataset{Layouts: make(map[int]*layout.Layout)}
	tables := []struct {
		file     string
		required bool
		load     func(r io.Reader, rows int) error
	}{
		{SystemsFile, true, into(systemsTable, &d.Systems, p, rep)},
		{FailuresFile, true, func(r io.Reader, rows int) error {
			fs, lines, err := decodeFailures(r, rows, p, rep)
			if err != nil {
				return err
			}
			d.Failures, err = SanitizeFailures(FailuresFile, fs, lines, d.Systems, p, rep)
			return err
		}},
		{JobsFile, false, into(jobsTable, &d.Jobs, p, rep)},
		{TempsFile, false, into(tempsTable, &d.Temps, p, rep)},
		{MaintenanceFile, false, into(maintenanceTable, &d.Maintenance, p, rep)},
		{NeutronsFile, false, into(neutronsTable, &d.Neutrons, p, rep)},
	}
	for _, t := range tables {
		if servedOnly && !t.required {
			continue
		}
		f, err := os.Open(filepath.Join(dir, t.file))
		if !t.required && os.IsNotExist(err) {
			rep.Add(validate.Diagnostic{File: t.file, Class: validate.MissingTable,
				Severity: validate.Info, Msg: "optional table missing; series degrades to empty"})
			continue
		}
		if err != nil {
			return nil, rep, fmt.Errorf("load dataset: %w", err)
		}
		rows, err := countRows(f)
		if err == nil {
			err = t.load(f, rows)
		}
		f.Close()
		if err != nil {
			return nil, rep, err
		}
	}

	for _, s := range d.Systems {
		f, err := os.Open(filepath.Join(dir, LayoutFile(s.ID)))
		if os.IsNotExist(err) {
			continue // layouts are optional per system, silently
		}
		if err != nil {
			return nil, rep, fmt.Errorf("load dataset: %w", err)
		}
		l, rerr := ReadLayout(f, s.ID)
		f.Close()
		if rerr != nil {
			if p.Mode == validate.Strict {
				return nil, rep, rerr
			}
			rep.Add(validate.Diagnostic{File: LayoutFile(s.ID), Class: validate.BadRow,
				Severity: validate.Warning, Msg: fmt.Sprintf("layout unreadable, dropped: %v", rerr)})
			continue
		}
		d.Layouts[s.ID] = l
	}
	d.Sort()
	return d, rep, p.CheckBudget(rep)
}
