package lanl

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/validate"
)

const sampleCSV = `System,nodenumz,Prob Started,Prob Fixed,Down Time,Facilities,Hardware,Human Error,Network,Undetermined,Software
20,0,07/14/2003 09:30,07/14/2003 11:00,,,Memory Dimm,,,,
20,3,07/15/2003 02:10,,120,,,,,Unresolvable,
18,12,08/01/2003 17:45,08/01/2003 18:45,,Power Outage,,,,,
18,12,08/02/2003 03:00,,,,,,Switch Fabric,,
2,1,08/03/2003 12:00,08/03/2003 13:30,,,,,,,"DST crash"
20,7,08/04/2003 08:00,,30,,CPU,,,,
20,9,08/05/2003 08:00,,15,,San Fan Assembly,,,,
`

func TestImportFailures(t *testing.T) {
	res, err := ImportFailures(strings.NewReader(sampleCSV), DefaultMapping())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Issues) != 0 {
		t.Fatalf("unexpected issues: %+v", res.Issues)
	}
	fs := res.Failures
	if len(fs) != 7 {
		t.Fatalf("failures = %d", len(fs))
	}
	// Row 1: memory DIMM with downtime from fixed-started.
	f := fs[0]
	if f.System != 20 || f.Node != 0 {
		t.Errorf("row1 ids: %+v", f)
	}
	if f.Category != trace.Hardware || f.HW != trace.Memory {
		t.Errorf("row1 cause: %v/%v", f.Category, f.HW)
	}
	if f.Downtime != 90*time.Minute {
		t.Errorf("row1 downtime = %v", f.Downtime)
	}
	if f.Time.Month() != time.July || f.Time.Day() != 14 || f.Time.Hour() != 9 {
		t.Errorf("row1 time = %v", f.Time)
	}
	// Row 2: undetermined with explicit downtime minutes.
	if fs[1].Category != trace.Undetermined || fs[1].Downtime != 2*time.Hour {
		t.Errorf("row2: %+v", fs[1])
	}
	// Row 3: facilities -> environment/power outage.
	if fs[2].Category != trace.Environment || fs[2].Env != trace.PowerOutage {
		t.Errorf("row3: %+v", fs[2])
	}
	// Row 4: network, no downtime info.
	if fs[3].Category != trace.Network || fs[3].Downtime != 0 {
		t.Errorf("row4: %+v", fs[3])
	}
	// Row 5: software DST.
	if fs[4].Category != trace.Software || fs[4].SW != trace.DST {
		t.Errorf("row5: %+v", fs[4])
	}
	// Rows 6-7: CPU and fan keyword matches.
	if fs[5].HW != trace.CPU || fs[6].HW != trace.Fan {
		t.Errorf("rows 6-7: %v, %v", fs[5].HW, fs[6].HW)
	}
}

func TestImportSkipsBadRows(t *testing.T) {
	bad := `System,nodenumz,Prob Started,Prob Fixed,Down Time,Facilities,Hardware,Human Error,Network,Undetermined,Software
X,0,07/14/2003 09:30,,,,CPU,,,,
20,0,not a time,,,,CPU,,,,
20,0,07/14/2003 09:30,,,,,,,,
20,1,07/14/2003 09:30,,,,CPU,,,,
`
	res, err := ImportFailures(strings.NewReader(bad), DefaultMapping())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Errorf("failures = %d, want 1", len(res.Failures))
	}
	if len(res.Issues) != 3 {
		t.Errorf("issues = %d, want 3 (bad system, bad time, no cause)", len(res.Issues))
	}
	for _, is := range res.Issues {
		if is.Line < 2 {
			t.Errorf("issue line %d implausible", is.Line)
		}
	}
}

func TestImportMissingColumn(t *testing.T) {
	m := DefaultMapping()
	_, err := ImportFailures(strings.NewReader("foo,bar\n1,2\n"), m)
	if !errors.Is(err, ErrBadHeader) {
		t.Errorf("want ErrBadHeader, got %v", err)
	}
}

// TestImportMissingRootCausesDeterministic: a header missing several mapped
// root-cause columns must name the same one on every import, not whichever
// a map iteration reaches first.
func TestImportMissingRootCausesDeterministic(t *testing.T) {
	header := "System,nodenumz,Prob Started,Prob Fixed,Down Time,Hardware,Software\n"
	msgs := map[string]bool{}
	for range 64 {
		_, err := ImportFailures(strings.NewReader(header), DefaultMapping())
		if !errors.Is(err, ErrBadHeader) {
			t.Fatalf("want ErrBadHeader, got %v", err)
		}
		msgs[err.Error()] = true
	}
	if len(msgs) != 1 {
		t.Fatalf("64 imports of one header gave %d different errors: %v", len(msgs), msgs)
	}
}

func TestHeaderNormalization(t *testing.T) {
	// Extra whitespace and case differences in headers are tolerated.
	csv := "system, NODENUMZ ,prob  started,Prob Fixed,Down Time,Facilities,HARDWARE,Human Error,Network,Undetermined,Software\n" +
		"20,1,07/14/2003 09:30,,,,CPU,,,,\n"
	res, err := ImportFailures(strings.NewReader(csv), DefaultMapping())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %d", len(res.Failures))
	}
}

func TestSubtypeKeywords(t *testing.T) {
	cases := []struct {
		cat  trace.Category
		text string
		want interface{}
	}{
		{trace.Hardware, "Node Board", trace.NodeBoard},
		{trace.Hardware, "MSC Board", trace.MSCBoard},
		{trace.Hardware, "MidPlane", trace.Midplane},
		{trace.Hardware, "Ethernet Adapter", trace.NIC},
		{trace.Hardware, "Mysterious Widget", trace.OtherHW},
		{trace.Software, "Parallel File System", trace.PFS},
		{trace.Software, "Cluster File System", trace.CFS},
		{trace.Software, "Kernel panic", trace.OS},
		{trace.Software, "Patch install", trace.PatchInstall},
		{trace.Software, "Scheduler", trace.OtherSW},
		{trace.Environment, "UPS failure", trace.UPS},
		{trace.Environment, "Power Spike", trace.PowerSpike},
		{trace.Environment, "Chiller down", trace.Chillers},
		{trace.Environment, "Flood", trace.OtherEnv},
	}
	for _, c := range cases {
		f := trace.Failure{Category: c.cat}
		applySubtype(&f, c.text)
		var got interface{}
		switch c.cat {
		case trace.Hardware:
			got = f.HW
		case trace.Software:
			got = f.SW
		case trace.Environment:
			got = f.Env
		}
		if got != c.want {
			t.Errorf("%v %q -> %v, want %v", c.cat, c.text, got, c.want)
		}
	}
}

func TestBuildSystems(t *testing.T) {
	res, err := ImportFailures(strings.NewReader(sampleCSV), DefaultMapping())
	if err != nil {
		t.Fatal(err)
	}
	systems := BuildSystems(res.Failures, StudyGroup2)
	if len(systems) != 3 {
		t.Fatalf("systems = %d", len(systems))
	}
	byID := map[int]trace.SystemInfo{}
	for _, s := range systems {
		byID[s.ID] = s
	}
	if byID[20].Nodes != 10 { // max node 9
		t.Errorf("system 20 nodes = %d", byID[20].Nodes)
	}
	if byID[2].Group != trace.Group2 || byID[2].ProcsPerNode != 128 {
		t.Errorf("system 2 should be group-2 NUMA: %+v", byID[2])
	}
	if byID[18].Group != trace.Group1 {
		t.Error("system 18 should be group-1")
	}
	if !byID[18].Period.Start.Before(byID[18].Period.End) {
		t.Error("derived period empty")
	}
}

func TestImportDataset(t *testing.T) {
	ds, res, err := ImportDataset(strings.NewReader(sampleCSV), DefaultMapping())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != len(ds.Failures) {
		t.Error("dataset should carry all imported failures")
	}
	if err := ds.Validate(); err != nil {
		t.Errorf("imported dataset invalid: %v", err)
	}
	// Empty input errors.
	if _, _, err := ImportDataset(strings.NewReader("System,nodenumz,Prob Started,Prob Fixed,Down Time,Facilities,Hardware,Human Error,Network,Undetermined,Software\n"), DefaultMapping()); err == nil {
		t.Error("empty table should error")
	}
}

func TestImportDatasetWithPolicies(t *testing.T) {
	corrupt := sampleCSV +
		"20,0,not a time,,,,CPU,,,,\n" + // unparseable timestamp
		"20,5,08/06/2003 08:00,,-30,,CPU,,,,\n" // negative downtime

	// Lenient: both bad records are skipped with diagnostics.
	ds, rep, err := ImportDatasetWith(strings.NewReader(corrupt), DefaultMapping(), validate.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Failures) != 7 {
		t.Errorf("lenient import kept %d failures, want 7", len(ds.Failures))
	}
	if rep.Skipped != 2 {
		t.Errorf("skipped = %d, want 2: %s", rep.Skipped, rep.Summary())
	}
	if !rep.Has(validate.BadTimestamp, ImportFile, 0) {
		t.Errorf("missing bad-timestamp diagnostic:\n%s", rep.Summary())
	}

	// Repair: the negative downtime is clamped instead of dropped.
	ds, rep, err = ImportDatasetWith(strings.NewReader(corrupt), DefaultMapping(), validate.RepairPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Failures) != 8 {
		t.Errorf("repair import kept %d failures, want 8: %s", len(ds.Failures), rep.Summary())
	}
	if rep.Repaired == 0 {
		t.Errorf("repair import repaired nothing: %s", rep.Summary())
	}

	// Strict: the first bad record aborts the import.
	if _, _, err := ImportDatasetWith(strings.NewReader(corrupt), DefaultMapping(), validate.StrictPolicy()); err == nil {
		t.Error("strict import of corrupt input should fail")
	}

	// Tight budget: the import errors with ErrBudgetExceeded.
	p := validate.DefaultPolicy()
	p.MaxSkipRate = 0.1
	if _, _, err := ImportDatasetWith(strings.NewReader(corrupt), DefaultMapping(), p); !errors.Is(err, validate.ErrBudgetExceeded) {
		t.Errorf("want budget error, got %v", err)
	}
}
