package trace

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/validate"
)

func ts(h int) time.Time {
	return time.Date(2001, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(h) * time.Hour)
}

// readAll decodes a whole table under Strict through the one table reader.
func readAll[T any](t table[T], r io.Reader) ([]T, error) {
	var out []T
	err := t.read(r, validate.StrictPolicy(), &validate.Report{}, func(v T, _ int) { out = append(out, v) })
	return out, err
}

// ValidateFailuresCSV decodes a failures CSV stream, sanitizes it against
// the given system catalog (nil skips reference checks), and enforces the
// policy's error budget: the load pipeline for one failures stream.
func ValidateFailuresCSV(r io.Reader, systems []SystemInfo, p validate.Policy) ([]Failure, *validate.Report, error) {
	fs, lines, rep, err := DecodeFailuresCSV(r, p)
	if err != nil {
		return nil, rep, err
	}
	fs, err = SanitizeFailures(FailuresFile, fs, lines, systems, p, rep)
	if err != nil {
		return nil, rep, err
	}
	return fs, rep, p.CheckBudget(rep)
}

func sampleFailures() []Failure {
	return []Failure{
		{System: 18, Node: 0, Time: ts(1), Category: Hardware, HW: Memory, Downtime: 2 * time.Hour},
		{System: 18, Node: 5, Time: ts(2), Category: Environment, Env: PowerOutage, Downtime: 30 * time.Minute},
		{System: 2, Node: 1, Time: ts(3), Category: Software, SW: DST},
		{System: 2, Node: 2, Time: ts(4), Category: Network},
		{System: 2, Node: 3, Time: ts(5), Category: Undetermined, Downtime: time.Second},
	}
}

func TestFailureCSVRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleFailures()
	if err := WriteFailures(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readAll(failuresTable, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("roundtrip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestFailureCSVErrors(t *testing.T) {
	bad := "system,node,time,category,hw,sw,env,downtime_s\nX,0,2001-03-01T00:00:00Z,HW,,,,0\n"
	if _, err := readAll(failuresTable, strings.NewReader(bad)); err == nil {
		t.Error("bad system field should fail")
	}
	badCat := "system,node,time,category,hw,sw,env,downtime_s\n1,0,2001-03-01T00:00:00Z,NOPE,,,,0\n"
	if _, err := readAll(failuresTable, strings.NewReader(badCat)); err == nil {
		t.Error("bad category should fail")
	}
	badTime := "system,node,time,category,hw,sw,env,downtime_s\n1,0,yesterday,HW,,,,0\n"
	if _, err := readAll(failuresTable, strings.NewReader(badTime)); err == nil {
		t.Error("bad time should fail")
	}
	short := "system,node\n1,2\n"
	if _, err := readAll(failuresTable, strings.NewReader(short)); err == nil {
		t.Error("wrong column count should fail")
	}
}

func TestJobCSVRoundtrip(t *testing.T) {
	in := []Job{
		{System: 8, ID: 1, User: 42, Submit: ts(0), Dispatch: ts(1), End: ts(9), Procs: 16, Nodes: []int{3, 4, 5, 6}},
		{System: 8, ID: 2, User: 7, Submit: ts(2), Dispatch: ts(2), End: ts(3), Procs: 4, Nodes: []int{0}, FailedByNode: true},
		{System: 20, ID: 3, User: 1, Submit: ts(4), Dispatch: ts(5), End: ts(6), Procs: 4, Nodes: nil},
	}
	var buf bytes.Buffer
	if err := WriteJobs(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readAll(jobsTable, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("roundtrip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestTempsCSVRoundtrip(t *testing.T) {
	in := []TempSample{
		{System: 20, Node: 0, Time: ts(0), Celsius: 27.5},
		{System: 20, Node: 1, Time: ts(1), Celsius: 41.23},
	}
	var buf bytes.Buffer
	if err := WriteTemps(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readAll(tempsTable, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", in, out)
	}
}

func TestMaintenanceCSVRoundtrip(t *testing.T) {
	in := []MaintenanceEvent{
		{System: 18, Node: 4, Time: ts(2), Scheduled: false, HardwareRelated: true},
		{System: 18, Node: 9, Time: ts(3), Scheduled: true, HardwareRelated: false},
	}
	var buf bytes.Buffer
	if err := WriteMaintenance(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readAll(maintenanceTable, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", in, out)
	}
}

func TestNeutronCSVRoundtrip(t *testing.T) {
	in := []NeutronSample{
		{Time: ts(0), CountsPerMinute: 4000.25},
		{Time: ts(6), CountsPerMinute: 3805},
	}
	var buf bytes.Buffer
	if err := WriteNeutrons(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readAll(neutronsTable, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", in, out)
	}
}

func TestSystemsCSVRoundtrip(t *testing.T) {
	in := []SystemInfo{
		{ID: 18, Group: Group1, Nodes: 1024, ProcsPerNode: 4, Period: Interval{Start: ts(0), End: ts(1000)}},
		{ID: 2, Group: Group2, Nodes: 44, ProcsPerNode: 128, Period: Interval{Start: ts(0), End: ts(2000)}},
	}
	var buf bytes.Buffer
	if err := WriteSystems(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readAll(systemsTable, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", in, out)
	}
}

func TestLayoutCSVRoundtrip(t *testing.T) {
	in := layout.Regular(18, 23, 4)
	var buf bytes.Buffer
	if err := WriteLayout(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadLayout(&buf, 18)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() {
		t.Fatalf("layout length %d vs %d", out.Len(), in.Len())
	}
	for _, n := range in.Nodes() {
		pi, _ := in.Place(n)
		po, ok := out.Place(n)
		if !ok || pi != po {
			t.Errorf("node %d place %+v vs %+v", n, pi, po)
		}
	}
}

func TestSaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	ds := &Dataset{
		Systems: []SystemInfo{
			{ID: 18, Group: Group1, Nodes: 16, ProcsPerNode: 4, Period: Interval{Start: ts(0), End: ts(24 * 100)}},
		},
		Failures: []Failure{
			{System: 18, Node: 1, Time: ts(5), Category: Hardware, HW: CPU, Downtime: time.Hour},
			{System: 18, Node: 2, Time: ts(2), Category: Software, SW: OS},
		},
		Jobs: []Job{
			{System: 18, ID: 1, User: 3, Submit: ts(0), Dispatch: ts(1), End: ts(4), Procs: 4, Nodes: []int{1}},
		},
		Temps: []TempSample{
			{System: 18, Node: 0, Time: ts(1), Celsius: 30},
		},
		Maintenance: []MaintenanceEvent{
			{System: 18, Node: 1, Time: ts(9), HardwareRelated: true},
		},
		Neutrons: []NeutronSample{
			{Time: ts(0), CountsPerMinute: 4000},
		},
		Layouts: map[int]*layout.Layout{18: layout.Regular(18, 16, 2)},
	}
	ds.Sort()
	if err := SaveDir(dir, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Systems) != 1 || len(got.Failures) != 2 || len(got.Jobs) != 1 ||
		len(got.Temps) != 1 || len(got.Maintenance) != 1 || len(got.Neutrons) != 1 {
		t.Fatalf("loaded dataset shape wrong: %+v", got)
	}
	// LoadDir sorts: the earlier failure (node 2 at ts(2)) comes first.
	if got.Failures[0].Node != 2 {
		t.Error("loaded failures not sorted by time")
	}
	if got.Layouts[18] == nil || got.Layouts[18].Len() != 16 {
		t.Error("layout not loaded")
	}
	if err := got.Validate(); err != nil {
		t.Errorf("loaded dataset invalid: %v", err)
	}
}

func TestLoadDirMissing(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing directory should fail")
	}
}

func TestLayoutFileName(t *testing.T) {
	if LayoutFile(20) != "layout_20.csv" {
		t.Errorf("LayoutFile = %q", LayoutFile(20))
	}
}
