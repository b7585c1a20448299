package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcfail/hpcfail"
	"github.com/hpcfail/hpcfail/internal/cli"
)

func testData(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	ds, err := hpcfail.Generate(hpcfail.GenerateOptions{Seed: 2, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := hpcfail.SaveDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunSummaryAndQueries(t *testing.T) {
	dir := testData(t)
	if err := run([]string{"-data", dir, "-summary"}); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-data", dir},
		{"-data", dir, "-anchor", "NET", "-target", "SW", "-window", "week"},
		{"-data", dir, "-anchor", "HW/Memory", "-window", "day", "-group", "1"},
		{"-data", dir, "-anchor", "ENV/PowerOutage", "-target", "HW", "-window", "month"},
		{"-data", dir, "-anchor", "SW/DST", "-scope", "rack"},
		{"-data", dir, "-scope", "system", "-group", "2"},
		{"-data", dir, "-window", "48h"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := testData(t)
	cases := [][]string{
		{},                                       // missing -data
		{"-data", dir, "-anchor", "WAT"},         // bad category
		{"-data", dir, "-anchor", "HW/Quantum"},  // bad component
		{"-data", dir, "-anchor", "NET/Sub"},     // category without subtypes
		{"-data", dir, "-window", "soon"},        // bad window
		{"-data", dir, "-scope", "galaxy"},       // bad scope
		{"-data", filepath.Join(dir, "missing")}, // bad directory
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestStrictRefusesGarbageUnservedTables: the offline tools load every
// table, so garbage temps.csv and jobs.csv fail a -strictness strict run,
// though hpcserve, which reads only the served tables, boots on the same
// directory (its TestServesDespiteGarbageUnservedTables).
func TestStrictRefusesGarbageUnservedTables(t *testing.T) {
	for _, name := range []string{"temps.csv", "jobs.csv"} {
		dir := testData(t)
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not,a\ntable\n\x00\xff"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-data", dir, "-strictness", "strict", "-summary"}); err == nil {
			t.Errorf("-strictness strict accepts a garbage %s", name)
		}
	}
}

// TestParsePredForms: every event form the API accepts answers from the
// CLI too, in any case.
func TestParsePredForms(t *testing.T) {
	dir := testData(t)
	for _, s := range []string{"ENV", "HW", "SW", "NET", "HUMAN", "UNDET", "hw", "Net",
		"HW/CPU", "HW/Memory", "SW/PFS", "SW/OtherSW", "ENV/UPS", "ENV/Chillers", "hw/memory"} {
		if err := run([]string{"-data", dir, "-anchor", s}); err != nil {
			t.Errorf("-anchor %s: %v", s, err)
		}
	}
}

func TestParseWindow(t *testing.T) {
	dir := testData(t)
	for _, w := range []string{"month", "90m", "Day"} {
		if err := run([]string{"-data", dir, "-window", w}); err != nil {
			t.Errorf("-window %s: %v", w, err)
		}
	}
}

// TestSharedQueryVocabulary pins inputs that /v1/condprob accepts and that
// the CLI's own parser used to reject: hardware components missing from
// its hard-coded list, window and scope names in another case. A window
// past the API's range fails here as it does there.
func TestSharedQueryVocabulary(t *testing.T) {
	dir := testData(t)
	for _, args := range [][]string{
		{"-anchor", "HW/NIC"},
		{"-target", "HW/OtherHW"},
		{"-window", "Week"},
		{"-scope", "Rack"},
	} {
		if err := run(append([]string{"-data", dir}, args...)); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
	if err := run([]string{"-data", dir, "-window", "100000h"}); err == nil {
		t.Error("-window 100000h should fail: no API query can ask for it")
	}
}

// TestNonPositiveWindowRejected: a window that cannot hold a follow-up is
// a plain error (exit 1, like an unparsable one), not a panic or a NaN
// answer.
func TestNonPositiveWindowRejected(t *testing.T) {
	dir := testData(t)
	for _, w := range []string{"0s", "-24h", "abc"} {
		if code := cli.Run("hpcanalyze", []string{"-data", dir, "-window", w}, run); code != cli.CodeError {
			t.Errorf("-window %s: exit %d, want %d", w, code, cli.CodeError)
		}
	}
}
