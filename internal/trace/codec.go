package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/validate"
)

// The CSV codecs serialize datasets into a directory of plain CSV files,
// one per record type, with a header row. The column layout follows the
// spirit of the released LANL tables (node number, timestamps, root-cause
// fields) while staying strictly machine-readable.

const timeLayout = time.RFC3339

// File names used inside a dataset directory.
const (
	SystemsFile     = "systems.csv"
	FailuresFile    = "failures.csv"
	JobsFile        = "jobs.csv"
	TempsFile       = "temps.csv"
	MaintenanceFile = "maintenance.csv"
	NeutronsFile    = "neutrons.csv"
)

// The dataset's tables, each with the column names its writer emits as
// the header row and the parser its rows go through on load.
var (
	systemsTable = table[SystemInfo]{SystemsFile,
		[]string{"id", "group", "nodes", "procs_per_node", "start", "end"}, fieldParser(parseSystem)}
	failuresTable = table[Failure]{FailuresFile,
		[]string{"system", "node", "time", "category", "hw", "sw", "env", "downtime_s"}, parseFailure}
	jobsTable = table[Job]{JobsFile,
		[]string{"system", "id", "user", "submit", "dispatch", "end", "procs", "nodes", "failed_by_node"}, fieldParser(parseJob)}
	tempsTable = table[TempSample]{TempsFile,
		[]string{"system", "node", "time", "celsius"}, fieldParser(parseTemp)}
	maintenanceTable = table[MaintenanceEvent]{MaintenanceFile,
		[]string{"system", "node", "time", "scheduled", "hardware"}, fieldParser(parseMaintenance)}
	neutronsTable = table[NeutronSample]{NeutronsFile,
		[]string{"time", "counts_per_minute"}, fieldParser(parseNeutron)}
	layoutColumns = []string{"node", "rack", "position", "row", "aisle"}
)

// LayoutFile returns the per-system layout file name.
func LayoutFile(system int) string {
	return fmt.Sprintf("layout_%d.csv", system)
}

func parseTime(s string) (time.Time, error) {
	t, err := time.Parse(timeLayout, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("parse time %q: %w", s, err)
	}
	return t, nil
}

// WriteFailures writes failures as CSV with a header row.
func WriteFailures(w io.Writer, failures []Failure) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(failuresTable.columns); err != nil {
		return err
	}
	for _, f := range failures {
		hw, sw, env := "", "", ""
		if f.HW != HWUnknown {
			hw = f.HW.String()
		}
		if f.SW != SWUnknown {
			sw = f.SW.String()
		}
		if f.Env != EnvUnknown {
			env = f.Env.String()
		}
		rec := []string{
			strconv.Itoa(f.System),
			strconv.Itoa(f.Node),
			f.Time.Format(timeLayout),
			f.Category.String(),
			hw, sw, env,
			strconv.FormatInt(int64(f.Downtime/time.Second), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJobs writes jobs as CSV with a header row. Node lists are encoded as
// space-separated IDs inside one field.
func WriteJobs(w io.Writer, jobs []Job) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(jobsTable.columns); err != nil {
		return err
	}
	for _, j := range jobs {
		nodes := ""
		for i, n := range j.Nodes {
			if i > 0 {
				nodes += " "
			}
			nodes += strconv.Itoa(n)
		}
		rec := []string{
			strconv.Itoa(j.System),
			strconv.FormatInt(j.ID, 10),
			strconv.Itoa(j.User),
			j.Submit.Format(timeLayout),
			j.Dispatch.Format(timeLayout),
			j.End.Format(timeLayout),
			strconv.Itoa(j.Procs),
			nodes,
			strconv.FormatBool(j.FailedByNode),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func parseJob(rec []string) (Job, error) {
	var j Job
	var err error
	if j.System, err = strconv.Atoi(rec[0]); err != nil {
		return j, fmt.Errorf("system: %w", err)
	}
	if j.ID, err = strconv.ParseInt(rec[1], 10, 64); err != nil {
		return j, fmt.Errorf("id: %w", err)
	}
	if j.User, err = strconv.Atoi(rec[2]); err != nil {
		return j, fmt.Errorf("user: %w", err)
	}
	if j.Submit, err = parseTime(rec[3]); err != nil {
		return j, err
	}
	if j.Dispatch, err = parseTime(rec[4]); err != nil {
		return j, err
	}
	if j.End, err = parseTime(rec[5]); err != nil {
		return j, err
	}
	if j.Procs, err = strconv.Atoi(rec[6]); err != nil {
		return j, fmt.Errorf("procs: %w", err)
	}
	if rec[7] != "" {
		start := 0
		s := rec[7]
		for i := 0; i <= len(s); i++ {
			if i == len(s) || s[i] == ' ' {
				if i > start {
					n, err := strconv.Atoi(s[start:i])
					if err != nil {
						return j, fmt.Errorf("nodes: %w", err)
					}
					j.Nodes = append(j.Nodes, n)
				}
				start = i + 1
			}
		}
	}
	if j.FailedByNode, err = strconv.ParseBool(rec[8]); err != nil {
		return j, fmt.Errorf("failed_by_node: %w", err)
	}
	return j, nil
}

// WriteTemps writes temperature samples as CSV with a header row.
func WriteTemps(w io.Writer, temps []TempSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(tempsTable.columns); err != nil {
		return err
	}
	for _, t := range temps {
		rec := []string{
			strconv.Itoa(t.System),
			strconv.Itoa(t.Node),
			t.Time.Format(timeLayout),
			strconv.FormatFloat(t.Celsius, 'f', 2, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func parseTemp(rec []string) (TempSample, error) {
	var t TempSample
	var err error
	if t.System, err = strconv.Atoi(rec[0]); err != nil {
		return t, fmt.Errorf("system: %w", err)
	}
	if t.Node, err = strconv.Atoi(rec[1]); err != nil {
		return t, fmt.Errorf("node: %w", err)
	}
	if t.Time, err = parseTime(rec[2]); err != nil {
		return t, err
	}
	if t.Celsius, err = strconv.ParseFloat(rec[3], 64); err != nil {
		return t, fmt.Errorf("celsius: %w", err)
	}
	return t, nil
}

// WriteMaintenance writes maintenance events as CSV with a header row.
func WriteMaintenance(w io.Writer, events []MaintenanceEvent) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(maintenanceTable.columns); err != nil {
		return err
	}
	for _, m := range events {
		rec := []string{
			strconv.Itoa(m.System),
			strconv.Itoa(m.Node),
			m.Time.Format(timeLayout),
			strconv.FormatBool(m.Scheduled),
			strconv.FormatBool(m.HardwareRelated),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func parseMaintenance(rec []string) (MaintenanceEvent, error) {
	var m MaintenanceEvent
	var err error
	if m.System, err = strconv.Atoi(rec[0]); err != nil {
		return m, fmt.Errorf("system: %w", err)
	}
	if m.Node, err = strconv.Atoi(rec[1]); err != nil {
		return m, fmt.Errorf("node: %w", err)
	}
	if m.Time, err = parseTime(rec[2]); err != nil {
		return m, err
	}
	if m.Scheduled, err = strconv.ParseBool(rec[3]); err != nil {
		return m, fmt.Errorf("scheduled: %w", err)
	}
	if m.HardwareRelated, err = strconv.ParseBool(rec[4]); err != nil {
		return m, fmt.Errorf("hardware: %w", err)
	}
	return m, nil
}

// WriteNeutrons writes neutron samples as CSV with a header row.
func WriteNeutrons(w io.Writer, samples []NeutronSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(neutronsTable.columns); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			s.Time.Format(timeLayout),
			strconv.FormatFloat(s.CountsPerMinute, 'f', 2, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func parseNeutron(rec []string) (NeutronSample, error) {
	var s NeutronSample
	var err error
	if s.Time, err = parseTime(rec[0]); err != nil {
		return s, err
	}
	if s.CountsPerMinute, err = strconv.ParseFloat(rec[1], 64); err != nil {
		return s, fmt.Errorf("counts: %w", err)
	}
	return s, nil
}

// WriteSystems writes system descriptors as CSV with a header row.
func WriteSystems(w io.Writer, systems []SystemInfo) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(systemsTable.columns); err != nil {
		return err
	}
	for _, s := range systems {
		rec := []string{
			strconv.Itoa(s.ID),
			strconv.Itoa(int(s.Group)),
			strconv.Itoa(s.Nodes),
			strconv.Itoa(s.ProcsPerNode),
			s.Period.Start.Format(timeLayout),
			s.Period.End.Format(timeLayout),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func parseSystem(rec []string) (SystemInfo, error) {
	var s SystemInfo
	var err error
	if s.ID, err = strconv.Atoi(rec[0]); err != nil {
		return s, fmt.Errorf("id: %w", err)
	}
	g, err := strconv.Atoi(rec[1])
	if err != nil {
		return s, fmt.Errorf("group: %w", err)
	}
	s.Group = Group(g)
	if s.Nodes, err = strconv.Atoi(rec[2]); err != nil {
		return s, fmt.Errorf("nodes: %w", err)
	}
	if s.ProcsPerNode, err = strconv.Atoi(rec[3]); err != nil {
		return s, fmt.Errorf("procs: %w", err)
	}
	if s.Period.Start, err = parseTime(rec[4]); err != nil {
		return s, err
	}
	if s.Period.End, err = parseTime(rec[5]); err != nil {
		return s, err
	}
	return s, nil
}

// WriteLayout writes one system's layout as CSV with a header row.
func WriteLayout(w io.Writer, l *layout.Layout) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(layoutColumns); err != nil {
		return err
	}
	for _, n := range l.Nodes() {
		p, _ := l.Place(n)
		rec := []string{
			strconv.Itoa(n),
			strconv.Itoa(p.Rack),
			strconv.Itoa(p.Position),
			strconv.Itoa(p.Row),
			strconv.Itoa(p.Aisle),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadLayout parses CSV produced by WriteLayout into a layout for system.
// Parsing is strict: the first malformed row aborts with a file:line error.
func ReadLayout(r io.Reader, system int) (*layout.Layout, error) {
	l := layout.New(system)
	t := table[int]{LayoutFile(system), layoutColumns, func(rec []string, _ validate.Policy) (int, []validate.Diagnostic) {
		var v [5]int
		for i, s := range rec {
			var err error
			if v[i], err = strconv.Atoi(s); err != nil {
				return 0, badField(fmt.Errorf("field %d: %w", i, err))
			}
		}
		// Placing the node here, not after the read, anchors a rejected
		// place to its own line.
		return v[0], badField(l.SetPlace(v[0], layout.Place{Rack: v[1], Position: v[2], Row: v[3], Aisle: v[4]}))
	}}
	if err := t.read(r, validate.StrictPolicy(), &validate.Report{}, func(int, int) {}); err != nil {
		return nil, err
	}
	return l, nil
}

// SaveDir writes the full dataset into a directory, one CSV file per record
// type plus one layout file per system with a layout. The directory is
// created if needed.
func SaveDir(dir string, d *Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("save dataset: %w", err)
	}
	save := func(name string, write func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", name, err)
		}
		return f.Close()
	}
	if err := save(SystemsFile, func(w io.Writer) error { return WriteSystems(w, d.Systems) }); err != nil {
		return err
	}
	if err := save(FailuresFile, func(w io.Writer) error { return WriteFailures(w, d.Failures) }); err != nil {
		return err
	}
	if err := save(JobsFile, func(w io.Writer) error { return WriteJobs(w, d.Jobs) }); err != nil {
		return err
	}
	if err := save(TempsFile, func(w io.Writer) error { return WriteTemps(w, d.Temps) }); err != nil {
		return err
	}
	if err := save(MaintenanceFile, func(w io.Writer) error { return WriteMaintenance(w, d.Maintenance) }); err != nil {
		return err
	}
	if err := save(NeutronsFile, func(w io.Writer) error { return WriteNeutrons(w, d.Neutrons) }); err != nil {
		return err
	}
	for id, l := range d.Layouts {
		lay := l
		if err := save(LayoutFile(id), func(w io.Writer) error { return WriteLayout(w, lay) }); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir reads a dataset directory written by SaveDir. Parsing is strict —
// any malformed record aborts the load — but missing optional tables (jobs,
// temperatures, maintenance, neutrons, layouts) degrade to empty series so
// partial datasets remain analyzable. Use LoadDirWith to choose a lenient or
// repairing policy and to inspect the diagnostics.
func LoadDir(dir string) (*Dataset, error) {
	d, _, err := LoadDirWith(dir, validate.StrictPolicy())
	if err != nil {
		return nil, err
	}
	return d, nil
}
