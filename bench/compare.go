package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// quartiles returns the first quartile, median and third quartile of
// values with the exclusive method (Python's statistics.quantiles(n=4)).
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// summarizeDir reads a compare.sh results directory — files named
// <pair>-<side>-<workload>.json, each holding one run's result line, side A
// or B — and prints, per workload and end-to-end metric, each side's median
// and quartiles over its correct runs and the share of pairs B won, then per
// workload and side how many runs left no result line or failed a check. A
// side whose run left no result or failed a check loses that pair.
// Directions come from the copy of BENCHMARK.json in the directory.
func summarizeDir(dir string, w io.Writer) error {
	better, err := metricDirections(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	type runKey struct{ workload, side, pair string }
	runs := map[runKey]*resultLine{} // nil: the run printed no result line
	workloadSet := map[string]bool{}
	files, err := filepath.Glob(filepath.Join(dir, "*-*-*.json"))
	if err != nil {
		return err
	}
	for _, f := range files {
		parts := strings.SplitN(strings.TrimSuffix(filepath.Base(f), ".json"), "-", 3)
		if len(parts) != 3 || (parts[1] != "A" && parts[1] != "B") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var line *resultLine
		if err := json.Unmarshal(b, &line); err != nil {
			line = nil
		}
		runs[runKey{parts[2], parts[1], parts[0]}] = line
		workloadSet[parts[2]] = true
	}
	var workloads []string
	for wl := range workloadSet {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	metrics := make([]string, 0, len(better))
	for name := range better {
		metrics = append(metrics, name)
	}
	sort.Strings(metrics)
	// value returns run k's metric and whether the run counts: it printed
	// a result line, passed every check and reported the metric.
	value := func(k runKey, metric string) (float64, bool) {
		line := runs[k]
		if line == nil || !line.Correct {
			return 0, false
		}
		m, ok := line.Metrics[metric]
		return m.Value, ok
	}

	fmt.Fprintf(w, "%-10s %-18s %10s %21s %10s %21s %6s %s\n", "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "pairs", "B wins")
	for _, wl := range workloads {
		for _, metric := range metrics {
			var av, bv []float64
			wins, pairs := 0, 0
			for k := range runs {
				if k.workload != wl {
					continue
				}
				if x, ok := value(k, metric); ok {
					if k.side == "A" {
						av = append(av, x)
					} else {
						bv = append(bv, x)
					}
				}
				if k.side != "B" {
					continue
				}
				ka := runKey{wl, "A", k.pair}
				if _, paired := runs[ka]; !paired {
					continue
				}
				pairs++
				x, aOK := value(ka, metric)
				y, bOK := value(k, metric)
				switch {
				case !bOK:
				case !aOK:
					wins++
				case better[metric] == "higher" && y > x, better[metric] != "higher" && y < x:
					wins++
				}
			}
			a1, a2, a3 := quartiles(av)
			b1, b2, b3 := quartiles(bv)
			frac := 0.0
			if pairs > 0 {
				frac = float64(wins) / float64(pairs)
			}
			fmt.Fprintf(w, "%-10s %-18s %10.4g %10.4g..%-10.4g %10.4g %10.4g..%-10.4g %6d %.2f\n",
				wl, metric, a2, a1, a3, b2, b1, b3, pairs, frac)
		}
	}

	fmt.Fprintf(w, "\n%-10s %-4s %6s %10s %10s %10s\n", "workload", "side", "runs", "no result", "incorrect", "failed ops")
	for _, wl := range workloads {
		for _, side := range []string{"A", "B"} {
			n, missing, incorrect, failed := 0, 0, 0, 0
			for k, line := range runs {
				if k.workload != wl || k.side != side {
					continue
				}
				n++
				switch {
				case line == nil:
					missing++
				case !line.Correct:
					incorrect++
				}
				if line != nil {
					failed += line.Failed
				}
			}
			fmt.Fprintf(w, "%-10s %-4s %6d %10d %10d %10d\n", wl, side, n, missing, incorrect, failed)
		}
	}
	return nil
}

// metricDirections maps each end-to-end metric in a BENCHMARK.json to its
// better direction.
func metricDirections(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]string, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Better
	}
	return out, nil
}
