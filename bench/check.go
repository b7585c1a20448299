package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// refQueries are the fixed condprob queries checked against the naive
// reference after every run: four per scope, all three windows, both
// groups. System-scope anchors are rare classes so the naive scan stays
// cheap.
var refQueries = []query{
	{anchor: "HW", target: "HW", scope: analysis.ScopeNode, window: trace.Day},
	{anchor: "SW", scope: analysis.ScopeNode, window: trace.Week},
	{anchor: "HW/Memory", target: "HW/Memory", scope: analysis.ScopeNode, window: trace.Month},
	{anchor: "NET", target: "SW", scope: analysis.ScopeNode, window: trace.Week, group: 1},
	{anchor: "HW", target: "HW", scope: analysis.ScopeRack, window: trace.Day},
	{anchor: "ENV", scope: analysis.ScopeRack, window: trace.Week},
	{anchor: "SW/OS", target: "SW", scope: analysis.ScopeRack, window: trace.Month},
	{anchor: "HW/CPU", target: "HW", scope: analysis.ScopeRack, window: trace.Week, group: 1},
	{anchor: "ENV/PowerOutage", scope: analysis.ScopeSystem, window: trace.Day},
	{anchor: "ENV", target: "NET", scope: analysis.ScopeSystem, window: trace.Week},
	{anchor: "ENV", target: "HW", scope: analysis.ScopeSystem, window: trace.Month},
	{anchor: "NET", target: "HW/Memory", scope: analysis.ScopeSystem, window: trace.Week, group: 2},
}

// parsePred resolves an event spec ("HW", "HW/Memory", "" for any failure)
// into a predicate, with the labels the trace package prints.
func parsePred(spec string) (trace.Pred, error) {
	if spec == "" {
		return nil, nil
	}
	catLabel, sub, refined := strings.Cut(spec, "/")
	cat, err := trace.ParseCategory(catLabel)
	if err != nil {
		return nil, err
	}
	if !refined {
		return trace.CategoryPred(cat), nil
	}
	switch cat {
	case trace.Hardware:
		h, err := trace.ParseHWComponent(sub)
		return trace.HWPred(h), err
	case trace.Software:
		c, err := trace.ParseSWClass(sub)
		return trace.SWPred(c), err
	case trace.Environment:
		e, err := trace.ParseEnvClass(sub)
		return trace.EnvPred(e), err
	}
	return nil, fmt.Errorf("category %s has no subtypes", cat)
}

// groupSystems is the condprob query's system scope over one dataset.
func groupSystems(ds *trace.Dataset, group int) []trace.SystemInfo {
	switch group {
	case 1:
		return ds.GroupSystems(trace.Group1)
	case 2:
		return ds.GroupSystems(trace.Group2)
	}
	return ds.Systems
}

// condCounts are the integer counts behind one condprob answer.
type condCounts struct {
	CondSucc, CondTrials, BaseSucc, BaseTrials int
}

func countsOf(r analysis.CondResult) condCounts {
	return condCounts{r.Conditional.Successes, r.Conditional.Trials, r.Baseline.Successes, r.Baseline.Trials}
}

// decodeCondCounts reads the counts out of a /v1/condprob response body.
func decodeCondCounts(body []byte) (condCounts, error) {
	var b struct {
		Conditional struct{ Successes, Trials int } `json:"conditional"`
		Baseline    struct{ Successes, Trials int } `json:"baseline"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return condCounts{}, err
	}
	return condCounts{b.Conditional.Successes, b.Conditional.Trials, b.Baseline.Successes, b.Baseline.Trials}, nil
}

// referenceAnalyzer is built anew over what the server must answer
// from: the boot dataset as hpcserve loads it plus the acknowledged events,
// each system's period widened to cover them. It shares nothing with the
// server's incrementally maintained store.
func referenceAnalyzer(bootDir string, acked []trace.Failure) (*analysis.Analyzer, error) {
	ds, err := loadBoot(bootDir)
	if err != nil {
		return nil, err
	}
	ds.Failures = append(ds.Failures, acked...)
	ds.Systems = append([]trace.SystemInfo(nil), ds.Systems...)
	for i := range ds.Systems {
		s := &ds.Systems[i]
		for _, f := range acked {
			if f.System != s.ID {
				continue
			}
			if f.Time.Before(s.Period.Start) {
				s.Period.Start = f.Time
			}
			if f.Time.After(s.Period.End) {
				s.Period.End = f.Time
			}
		}
	}
	ds.Sort()
	return analysis.New(ds), nil
}

// checkCondProb sends every reference query to the server and compares its
// counts with the naive scan over ref.
func checkCondProb(base string, ref *analysis.Analyzer) []string {
	var problems []string
	c := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{Proxy: nil}}
	defer c.CloseIdleConnections()
	for _, q := range refQueries {
		path := renderPath(kCondProb, q)
		got, err := getCondCounts(c, base+path)
		if err != nil {
			problems = append(problems, fmt.Sprintf("reference query %s: %v", path, err))
			continue
		}
		anchor, err1 := parsePred(q.anchor)
		target, err2 := parsePred(q.target)
		if err1 != nil || err2 != nil {
			problems = append(problems, fmt.Sprintf("reference query %s: bad event spec", path))
			continue
		}
		want := countsOf(ref.CondProbNaive(groupSystems(ref.DS, q.group), anchor, target, q.window, q.scope))
		if got != want {
			problems = append(problems, fmt.Sprintf("condprob %s: server %+v, naive reference %+v", path, got, want))
		}
	}
	return problems
}

func getCondCounts(c *http.Client, url string) (condCounts, error) {
	resp, err := c.Get(url)
	if err != nil {
		return condCounts{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return condCounts{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return condCounts{}, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return decodeCondCounts(body)
}

// checkCounters compares the server's ingest counters with what the bench
// saw acknowledged: every acknowledged event accepted, none rejected, and no
// store append out of order.
func checkCounters(m map[string]float64, acked int) []string {
	var problems []string
	want := map[string]float64{
		"hpcserve_events_accepted_total": float64(acked),
		"hpcserve_events_rejected_total": 0,
		"hpcserve_store_rebuilds_total":  0,
	}
	for name, v := range want {
		got, ok := m[name]
		if !ok || got != v {
			problems = append(problems, fmt.Sprintf("/metrics %s = %v, want %v", name, got, v))
		}
	}
	return problems
}
