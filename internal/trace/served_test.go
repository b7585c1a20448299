package trace_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcfail/hpcfail/internal/simulate"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/validate"
)

// TestLoadServedWith: the served-table load is the full load's Served
// under every policy, reports nothing on the unserved tables, and so
// passes a strict policy over garbage temperature and job tables that fail
// the full load.
func TestLoadServedWith(t *testing.T) {
	ds, err := simulate.Generate(simulate.Options{Seed: 2, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := trace.SaveDir(dir, ds); err != nil {
		t.Fatal(err)
	}
	unserved := []string{trace.JobsFile, trace.TempsFile, trace.MaintenanceFile, trace.NeutronsFile}
	for _, p := range []validate.Policy{validate.StrictPolicy(), validate.DefaultPolicy()} {
		full, _, err := trace.LoadDirWith(dir, p)
		if err != nil {
			t.Fatalf("%v: LoadDirWith: %v", p.Mode, err)
		}
		served, rep, err := trace.LoadServedWith(dir, p)
		if err != nil {
			t.Fatalf("%v: LoadServedWith: %v", p.Mode, err)
		}
		if len(served.Layouts) == 0 || !reflect.DeepEqual(served, full.Served()) {
			t.Errorf("%v: LoadServedWith differs from LoadDirWith's Served", p.Mode)
		}
		for _, d := range rep.Diagnostics {
			for _, f := range unserved {
				if d.File == f {
					t.Errorf("%v: diagnostic on unserved %s: %v", p.Mode, f, d)
				}
			}
		}
	}

	for _, f := range []string{trace.TempsFile, trace.JobsFile} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("not,a\ntable\n\x00\xff"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := trace.LoadDirWith(dir, validate.StrictPolicy()); err == nil {
		t.Error("strict LoadDirWith accepts garbage temperature and job tables")
	}
	if _, rep, err := trace.LoadServedWith(dir, validate.StrictPolicy()); err != nil {
		t.Errorf("strict LoadServedWith over garbage unserved tables: %v", err)
	} else if s := rep.Summary(); strings.Contains(s, trace.TempsFile) || strings.Contains(s, trace.JobsFile) {
		t.Errorf("strict LoadServedWith reports on unserved tables:\n%s", s)
	}
}
