package hpcfail_test

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail"
)

// TestPublicAPISurface exercises the facade end to end: generate, save,
// load, analyze, and run an experiment, all through the exported API.
func TestPublicAPISurface(t *testing.T) {
	ds, err := hpcfail.Generate(hpcfail.GenerateOptions{Seed: 21, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "ds")
	if err := hpcfail.SaveDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := hpcfail.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Failures) != len(ds.Failures) {
		t.Fatalf("roundtrip lost failures: %d vs %d", len(loaded.Failures), len(ds.Failures))
	}

	a := hpcfail.NewAnalyzer(loaded)
	g1 := loaded.GroupSystems(hpcfail.Group1)
	week := a.CondProb(g1, nil, nil, hpcfail.Week, hpcfail.ScopeNode)
	if !week.Conditional.Valid() || !week.Baseline.Valid() {
		t.Fatal("conditional probability estimates should be populated")
	}
	if week.Conditional.P() <= week.Baseline.P() {
		t.Errorf("clustering expected: conditional %.3f <= baseline %.3f",
			week.Conditional.P(), week.Baseline.P())
	}

	// Predicates compose through the facade.
	mem := a.CondProb(g1, hpcfail.HWPred(hpcfail.Memory), hpcfail.HWPred(hpcfail.Memory), hpcfail.Week, hpcfail.ScopeNode)
	if mem.Conditional.Trials == 0 {
		t.Error("memory anchors should exist")
	}

	suite := hpcfail.NewExperimentSuite(loaded)
	res, err := suite.Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("fig9 failed: %v", res.Err)
	}
	if res.Figure == "" {
		t.Error("experiment should render a figure")
	}

	ids := hpcfail.ExperimentIDs()
	if len(ids) < 20 {
		t.Errorf("expected the full experiment index, got %d", len(ids))
	}
	if hpcfail.WindowName(hpcfail.Month) != "month" {
		t.Error("WindowName re-export broken")
	}
}

// TestCheckpointFacade exercises the checkpoint re-exports.
func TestCheckpointFacade(t *testing.T) {
	ds, err := hpcfail.Generate(hpcfail.GenerateOptions{Seed: 31, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	a := hpcfail.NewAnalyzer(ds)
	systems := ds.GroupSystems(hpcfail.Group1)
	mtbf := time.Duration(a.MTBFHours(systems) * float64(time.Hour))
	young := hpcfail.YoungInterval(10*time.Minute, mtbf)
	if young <= 0 {
		t.Fatal("Young interval should be positive")
	}
	failureTimes := func(system, node int) []time.Time {
		fs := a.NodeFailures(system, node)
		out := make([]time.Time, len(fs))
		for i, f := range fs {
			out[i] = f.Time
		}
		return out
	}
	results, err := hpcfail.CompareCheckpointPolicies(systems, failureTimes, 10*time.Minute,
		hpcfail.FixedCheckpoint{Every: young},
		hpcfail.RiskAwareCheckpoint{Base: young, Risky: young / 6, Window: 72 * time.Hour},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Checkpoints == 0 {
		t.Fatalf("results: %+v", results)
	}
	if results[1].Lost >= results[0].Lost {
		t.Errorf("risk-aware should lose less work on a clustered trace: %v vs %v",
			results[1].Lost, results[0].Lost)
	}
}

// TestImportLANLFacade exercises the importer re-exports.
func TestImportLANLFacade(t *testing.T) {
	csv := "System,nodenumz,Prob Started,Prob Fixed,Down Time,Facilities,Hardware,Human Error,Network,Undetermined,Software\n" +
		"20,0,01/05/2004 08:10,,,,CPU,,,,\n" +
		"20,1,01/06/2004 08:10,,,Power Outage,,,,,\n"
	ds, res, err := hpcfail.ImportLANL(strings.NewReader(csv), hpcfail.DefaultLANLMapping())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Failures) != 2 || len(res.Issues) != 0 {
		t.Fatalf("import: %d failures, %d issues", len(ds.Failures), len(res.Issues))
	}
	if ds.Failures[1].Env != hpcfail.PowerOutage {
		t.Error("outage subtype not recovered")
	}
}

// TestServingFacade exercises the serving layer through the exported API:
// lift table, risk engine, and the HTTP handler.
func TestServingFacade(t *testing.T) {
	ds, err := hpcfail.Generate(hpcfail.GenerateOptions{Seed: 23, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}

	table, err := hpcfail.BuildLiftTable(ds, ds.Systems, hpcfail.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Keys()) == 0 {
		t.Fatal("empty lift table")
	}

	engine, err := hpcfail.NewRiskEngine(ds, hpcfail.Day)
	if err != nil {
		t.Fatal(err)
	}
	sys := ds.Systems[0]
	now := sys.Period.End.Add(time.Hour)
	if err := engine.Observe(hpcfail.Failure{
		System: sys.ID, Node: 0, Time: now,
		Category: hpcfail.Hardware, HW: hpcfail.CPU,
	}); err != nil {
		t.Fatal(err)
	}
	sc, err := engine.Score(sys.ID, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Risk <= sc.Base {
		t.Errorf("risk %v not above base %v after a hardware event", sc.Risk, sc.Base)
	}

	srv, err := hpcfail.NewRiskServer(hpcfail.ServerConfig{Dataset: ds, Window: hpcfail.Day})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("healthz = %d", rec.Code)
	}
}

// TestGenerateOptionsAblation checks the ablation switches through the
// facade.
func TestGenerateOptionsAblation(t *testing.T) {
	ds, err := hpcfail.Generate(hpcfail.GenerateOptions{
		Seed: 22, Scale: 0.1,
		DisableTriggering: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Failures) == 0 {
		t.Error("ablated dataset should still have failures")
	}
}
