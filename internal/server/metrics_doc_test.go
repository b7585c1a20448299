package server

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMetricsTableMatchesREADME holds README's metrics table and the
// family table to each other: every family has a row with its name, type
// and labels, and every row has a family. The labels are read off the
// samples a live sharded server renders, so a family whose samples drift
// from its row fails too.
func TestMetricsTableMatchesREADME(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ typ, labels string }
	rows := map[string]row{}
	rowRE := regexp.MustCompile("^\\| `(hpcserve_[a-z_]+)` \\| ([a-z]+) \\|([^|]*)\\|")
	for _, line := range strings.Split(string(raw), "\n") {
		if m := rowRE.FindStringSubmatch(line); m != nil {
			rows[m[1]] = row{m[2], strings.Join(strings.Fields(strings.NewReplacer("`", "", ",", " ").Replace(m[3])), ",")}
		}
	}
	if len(rows) == 0 {
		t.Fatal("README has no metrics table rows")
	}

	s, _ := newShardedServer(t, t.TempDir())
	s.metrics.observe("/healthz", 200, time.Millisecond)
	in := metricsInput{st: s.fabric.status(), s: s}
	labelRE := regexp.MustCompile(`(\w+)="`)
	for _, fam := range families {
		r, ok := rows[fam.name]
		if !ok {
			t.Errorf("family %s has no README row (or is declared twice)", fam.name)
			continue
		}
		delete(rows, fam.name)
		if r.typ != fam.typ {
			t.Errorf("%s: README type %q, family type %q", fam.name, r.typ, fam.typ)
		}
		samples := fam.samples(&in)
		if len(samples) == 0 {
			t.Errorf("%s rendered no sample", fam.name)
		}
		for _, smp := range samples {
			var names []string
			for _, m := range labelRE.FindAllStringSubmatch(smp.labels, -1) {
				names = append(names, m[1])
			}
			if got := strings.Join(names, ","); got != r.labels {
				t.Errorf("%s: sample labels %q, README labels %q", fam.name, got, r.labels)
				break
			}
		}
	}
	for name := range rows {
		t.Errorf("README row %s has no family", name)
	}
}
