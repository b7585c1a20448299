package main

import (
	"path/filepath"
	"testing"
	"time"

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

func TestParsePredForms(t *testing.T) {
	for _, s := range []string{"ENV", "HW", "SW", "NET", "HUMAN", "UNDET",
		"HW/CPU", "HW/Memory", "SW/PFS", "SW/OtherSW", "ENV/UPS", "ENV/Chillers"} {
		if _, err := parsePred(s); err != nil {
			t.Errorf("parsePred(%q): %v", s, err)
		}
	}
	if p, err := parsePred(""); err != nil || p != nil {
		t.Error("empty pred should be nil, nil")
	}
}

func TestParseWindow(t *testing.T) {
	if w, err := parseWindow("month"); err != nil || w != hpcfail.Month {
		t.Error("month window")
	}
	if w, err := parseWindow("90m"); err != nil || w != 90*time.Minute {
		t.Error("duration window")
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
