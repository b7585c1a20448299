package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpcfail/hpcfail/internal/validate"
)

var allPolicies = []validate.Policy{validate.StrictPolicy(), validate.DefaultPolicy(), validate.RepairPolicy()}

const cleanSystems = "id,group,nodes,procs_per_node,start,end\n" +
	"20,1,4,4,2004-01-01T00:00:00Z,2005-01-01T00:00:00Z\n" +
	"18,1,2,4,2004-01-01T00:00:00Z,2005-01-01T00:00:00Z\n"

// writeDataset writes the given tables into a fresh dataset directory.
func writeDataset(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestTableHeaderNamesFirstColumn pins the one header rule: a table's first
// row is its header only if its first field names the table's first column.
// A headerless table keeps its first record, and a garbled header is a data
// row that fails to parse.
func TestTableHeaderNamesFirstColumn(t *testing.T) {
	headerless := strings.SplitN(cleanSystems, "\n", 2)[1]
	for _, p := range allPolicies {
		dir := writeDataset(t, map[string]string{SystemsFile: headerless, FailuresFile: cleanFailures})
		ds, rep, err := LoadDirWith(dir, p)
		if err != nil {
			t.Fatalf("%s: headerless systems table: %v", p.Mode, err)
		}
		if len(ds.Systems) != 2 || len(ds.Failures) != 3 || rep.Skipped != 0 {
			t.Errorf("%s: headerless systems table kept %d systems and %d failures:\n%s",
				p.Mode, len(ds.Systems), len(ds.Failures), rep.Summary())
		}
	}

	garbled := "sysXem,node,time,celsius\n20,1,2004-03-01T08:00:00Z,27.50\n"
	files := map[string]string{SystemsFile: cleanSystems, FailuresFile: cleanFailures, TempsFile: garbled}
	_, _, err := LoadDirWith(writeDataset(t, files), validate.StrictPolicy())
	if err == nil || !strings.HasPrefix(err.Error(), TempsFile+":1: ") {
		t.Errorf("strict load of a garbled temps header: %v, want a %s:1 error", err, TempsFile)
	}
	ds, rep, err := LoadDirWith(writeDataset(t, files), validate.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Temps) != 1 || !rep.Has(validate.BadField, TempsFile, 1) {
		t.Errorf("lenient load of a garbled temps header kept %d samples:\n%s", len(ds.Temps), rep.Summary())
	}

	// Layouts follow the same rule; a short header row is still a header.
	for _, in := range []string{"0,0,1,0,0\n1,0,2,0,0\n", "node,rack\n0,0,1,0,0\n1,0,2,0,0\n"} {
		l, err := ReadLayout(strings.NewReader(in), 7)
		if err != nil || len(l.Nodes()) != 2 {
			t.Errorf("ReadLayout(%q) = %v, %v; want both nodes placed", in, l, err)
		}
	}
}

// TestEveryTableScrubsFields pins the one junk rule: every table scrubs BOM
// and control bytes and trims spaces under every policy, and Strict aborts
// on scrubbed junk as encoding-junk.
func TestEveryTableScrubsFields(t *testing.T) {
	padded := "system,node,time,celsius\n 20 ,1,2004-03-01T08:00:00Z, 27.50\n"
	for _, p := range allPolicies {
		dir := writeDataset(t, map[string]string{SystemsFile: cleanSystems, FailuresFile: cleanFailures, TempsFile: padded})
		ds, rep, err := LoadDirWith(dir, p)
		if err != nil {
			t.Fatalf("%s: space-padded temps: %v", p.Mode, err)
		}
		if len(ds.Temps) != 1 || ds.Temps[0].System != 20 || ds.Temps[0].Celsius != 27.5 {
			t.Errorf("%s: space-padded temps loaded as %+v:\n%s", p.Mode, ds.Temps, rep.Summary())
		}
	}
	if _, err := ReadLayout(strings.NewReader("node,rack,position,row,aisle\n 0 ,0,1,0,0\n"), 7); err != nil {
		t.Errorf("space-padded layout: %v", err)
	}

	junk := "system,node,time,celsius\n20,1\x01,2004-03-01T08:00:00Z,27.50\n"
	dir := writeDataset(t, map[string]string{SystemsFile: cleanSystems, FailuresFile: cleanFailures, TempsFile: junk})
	_, _, err := LoadDirWith(dir, validate.StrictPolicy())
	if want := TempsFile + ":2: [encoding-junk]"; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("strict load of control bytes in temps: %v, want prefix %q", err, want)
	}
}

// TestOverlapFindingsDeterministic: with many nodes holding same-start
// outages, Strict names the same collision on every run (the node whose
// first record comes first), and the lenient findings come in line order.
func TestOverlapFindingsDeterministic(t *testing.T) {
	var b strings.Builder
	b.WriteString("system,node,time,category,hw,sw,env,downtime_s\n")
	for node := 0; node < 32; node++ {
		for i := 1; i <= 2; i++ {
			fmt.Fprintf(&b, "20,%d,2004-03-01T08:00:00Z,NET,,,,%d\n", node, 60*i)
		}
	}
	for i := 0; i < 10; i++ {
		fs, lines, _, err := DecodeFailuresCSV(strings.NewReader(b.String()), validate.StrictPolicy())
		if err != nil {
			t.Fatal(err)
		}
		_, err = SanitizeFailures(FailuresFile, fs, lines, nil, validate.StrictPolicy(), &validate.Report{})
		if want := FailuresFile + ":3: "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("run %d: strict sanitize = %v, want prefix %q", i, err, want)
		}
		rep := &validate.Report{}
		if _, err := SanitizeFailures(FailuresFile, fs, lines, nil, validate.DefaultPolicy(), rep); err != nil {
			t.Fatal(err)
		}
		for j, d := range rep.Diagnostics {
			if d.Line != 3+2*j {
				t.Fatalf("run %d: finding %d at line %d, want %d", i, j, d.Line, 3+2*j)
			}
		}
	}
}
