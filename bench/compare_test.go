package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A run that printed no result line, or failed a check, loses its pair and
// is counted beside the metric table instead of stopping the summary.
func TestSummarizeCountsFailedRunsAsLosses(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"BENCHMARK.json": `{"end_to_end": [{"name": "peak_ops_s", "better": "higher"}]}`,
		"1-A-live.json":  `{"correct": true, "attempted": 10, "failed": 0, "metrics": {"peak_ops_s": {"value": 100, "unit": "1/s"}}}`,
		"1-B-live.json":  ``,
		"2-A-live.json":  `{"correct": true, "attempted": 10, "failed": 0, "metrics": {"peak_ops_s": {"value": 100, "unit": "1/s"}}}`,
		"2-B-live.json":  `{"correct": true, "attempted": 10, "failed": 0, "metrics": {"peak_ops_s": {"value": 120, "unit": "1/s"}}}`,
		"3-A-live.json":  `{"correct": false, "attempted": 10, "failed": 2, "metrics": {"peak_ops_s": {"value": 999, "unit": "1/s"}}}`,
		"3-B-live.json":  `{"correct": true, "attempted": 10, "failed": 0, "metrics": {"peak_ops_s": {"value": 90, "unit": "1/s"}}}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := summarizeDir(dir, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		// A's median over its two correct runs; B wins pairs 2 and 3 of 3.
		`live\s+peak_ops_s\s+100\s+100\.\.100\s+105\s+.*\s3 0\.67`,
		`live\s+A\s+3\s+0\s+1\s+2`,
		`live\s+B\s+3\s+1\s+0\s+0`,
	} {
		if !regexp.MustCompile(want).MatchString(out.String()) {
			t.Errorf("summary does not match %q:\n%s", want, out.String())
		}
	}
}
