package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// doReq issues one request with optional headers and returns the response
// plus its full body.
func doReq(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// createTenant registers a named dataset through the admin API and asserts
// the 201.
func createTenant(t *testing.T, base, body string, hdr map[string]string) datasetStatusJSON {
	t.Helper()
	resp, b := doReq(t, http.MethodPost, base+"/v1/datasets", body, hdr)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/datasets %s = %d; body: %s", body, resp.StatusCode, b)
	}
	var row datasetStatusJSON
	if err := json.Unmarshal(b, &row); err != nil {
		t.Fatalf("decoding create response: %v; body: %s", err, b)
	}
	return row
}

// mirrorDefault rewrites an unprefixed API path onto the default tenant's
// /v1/d/default/... alias, exactly as a scoped client would.
func mirrorDefault(p string) string {
	path, query, _ := strings.Cut(p, "?")
	if rest, ok := strings.CutPrefix(path, "/v1/"); ok {
		path = "/v1/d/default/" + rest
	} else {
		path = "/v1/d/default" + path
	}
	if query != "" {
		path += "?" + query
	}
	return path
}

// TestDefaultTenantByteCompat pins the n=1 contract: every /v1/d/default/...
// route answers byte-identically — status, body, version and content-type
// headers — to its unprefixed twin, because both serve from the same
// instrumented handler over the same store.
func TestDefaultTenantByteCompat(t *testing.T) {
	ts, _ := newTestServer(t, func(cfg *Config) { cfg.TenantRoot = t.TempDir() })

	for _, p := range []string{
		"/healthz",
		"/readyz",
		"/v1/risk/top?k=3",
		"/v1/risk/0",
		"/v1/condprob?anchor=HW",
		"/v1/correlations",
		"/v1/anomalies?k=2",
		"/v1/rates",
		"/v1/snapshot",
	} {
		direct, db := getRaw(t, ts.URL+p)
		alias, ab := getRaw(t, ts.URL+mirrorDefault(p))
		if direct.StatusCode != alias.StatusCode {
			t.Fatalf("%s: status %d vs aliased %d", p, direct.StatusCode, alias.StatusCode)
		}
		if !bytes.Equal(db, ab) {
			t.Errorf("%s: body diverges from default alias:\n%s\nvs\n%s", p, db, ab)
		}
		for _, h := range []string{"Content-Type", "X-Dataset-Version", "X-Partial"} {
			if direct.Header.Get(h) != alias.Header.Get(h) {
				t.Errorf("%s: header %s %q vs aliased %q", p, h, direct.Header.Get(h), alias.Header.Get(h))
			}
		}
	}

	// Writes through the alias land in the same store the unprefixed route
	// serves: risk on the plain route elevates.
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/d/default/events",
		`{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aliased ingest = %d; body: %s", resp.StatusCode, body)
	}
	var score scoreJSON
	getJSON(t, ts.URL+"/v1/risk/0", http.StatusOK, &score)
	if score.Risk <= score.Base {
		t.Fatalf("aliased ingest did not reach the default store: %+v", score)
	}
}

// TestDatasetAdminAPI drives the registry lifecycle over HTTP: token-gated
// create/list/delete, per-dataset auth on the data plane, and the admin
// token's bypass.
func TestDatasetAdminAPI(t *testing.T) {
	ts, _ := newTestServer(t, func(cfg *Config) {
		cfg.TenantRoot = t.TempDir()
		cfg.AdminToken = "root-tok"
	})
	admin := map[string]string{adminTokenHeader: "root-tok"}

	// The admin API rejects unauthenticated and mis-authenticated callers.
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/datasets", `{"name":"alpha"}`, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated create = %d, want 401", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/datasets", "",
		map[string]string{adminTokenHeader: "wrong"}); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-token list = %d, want 401", resp.StatusCode)
	}

	row := createTenant(t, ts.URL, `{"name":"alpha","token":"s3cr3t","seed":7,"scale":0.01}`, admin)
	if row.Name != "alpha" || row.State != "open" || row.Systems == 0 || row.Shards < 1 {
		t.Fatalf("create row = %+v", row)
	}

	// Duplicate, reserved and malformed names are rejected with the right
	// statuses.
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/datasets", `{"name":"alpha"}`, admin); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create = %d, want 409", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/datasets", `{"name":"default"}`, admin); resp.StatusCode != http.StatusConflict {
		t.Fatalf("reserved create = %d, want 409", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/datasets", `{"name":"Not A Name!"}`, admin); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-name create = %d, want 400", resp.StatusCode)
	}

	var list struct {
		Datasets []datasetStatusJSON `json:"datasets"`
	}
	resp, b := doReq(t, http.MethodGet, ts.URL+"/v1/datasets", "", admin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list = %d; body: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 2 || list.Datasets[0].Name != "default" || list.Datasets[1].Name != "alpha" {
		t.Fatalf("list rows = %+v", list.Datasets)
	}

	// Data plane: no token 401, wrong token 401, dataset token 200, admin
	// bypass 200, unknown and invalid names 404.
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/d/alpha/risk/top?k=2", "", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless tenant query = %d, want 401", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/d/alpha/risk/top?k=2", "",
		map[string]string{datasetTokenHeader: "nope"}); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-token tenant query = %d, want 401", resp.StatusCode)
	}
	if resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/d/alpha/risk/top?k=2", "",
		map[string]string{datasetTokenHeader: "s3cr3t"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated tenant query = %d; body: %s", resp.StatusCode, body)
	}
	if resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/d/alpha/healthz", "", admin); resp.StatusCode != http.StatusOK {
		t.Fatalf("admin-bypass tenant query = %d; body: %s", resp.StatusCode, body)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/d/nosuch/healthz", "", admin); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset = %d, want 404", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/d/NOT..VALID/healthz", "", admin); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("invalid dataset name = %d, want 404", resp.StatusCode)
	}

	// Delete: gated, default protected, idempotent via 404 on repeat.
	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/datasets/alpha", "", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated delete = %d, want 401", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/datasets/default", "", admin); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delete default = %d, want 400", resp.StatusCode)
	}
	if resp, body := doReq(t, http.MethodDelete, ts.URL+"/v1/datasets/alpha", "", admin); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d; body: %s", resp.StatusCode, body)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/d/alpha/healthz", "", admin); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted dataset still routable, want 404")
	}
	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/datasets/alpha", "", admin); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("repeat delete = %d, want 404", resp.StatusCode)
	}
}

// TestTenantQuotaEvents: a dataset created with max_events sheds ingestion
// with 429 once its lifetime budget is spent, while the default tenant
// stays unlimited.
func TestTenantQuotaEvents(t *testing.T) {
	ts, _ := newTestServer(t, func(cfg *Config) { cfg.TenantRoot = t.TempDir() })
	createTenant(t, ts.URL, `{"name":"q","seed":5,"scale":0.01,"quota":{"max_events":3}}`, nil)

	ev := `{"events":[{"system":2,"node":0,"category":"HW","hw":"CPU"}]}`
	for i := 0; i < 3; i++ {
		resp, b := doReq(t, http.MethodPost, ts.URL+"/v1/d/q/events", ev, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-quota ingest %d = %d; body: %s", i, resp.StatusCode, b)
		}
	}
	resp, b := doReq(t, http.MethodPost, ts.URL+"/v1/d/q/events", ev, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota ingest = %d, want 429; body: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota 429 missing Retry-After")
	}
	if !strings.Contains(string(b), "quota") {
		t.Errorf("quota 429 body does not name the quota: %s", b)
	}

	// The default tenant has no quota and keeps accepting.
	if resp, b := postEvents(t, ts.URL, `{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("default ingest = %d; body: %s", resp.StatusCode, b)
	}

	// Per-dataset metrics rows carry the tenant's counters; the unlabeled
	// default rows are untouched by tenant traffic.
	metrics := string(fetchMetrics(t, ts))
	if !strings.Contains(metrics, `hpcserve_events_accepted_total{dataset="q"} 3`) {
		t.Errorf("metrics missing tenant event counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "\nhpcserve_events_accepted_total 1\n") {
		t.Errorf("metrics missing unlabeled default event counter:\n%s", metrics)
	}
}

// TestTenantReadOnlySiblingWritable: one tenant's ENOSPC latches only that
// tenant read-only; its siblings — and the default tenant — keep accepting
// writes, and per-tenant readiness reports the split.
func TestTenantReadOnlySiblingWritable(t *testing.T) {
	inj := iofault.NewInject(iofault.Disk, iofault.InjectSpec{})
	ts, s, _ := newTestServerFull(t, func(cfg *Config) {
		cfg.TenantRoot = t.TempDir()
		cfg.TenantWAL = wal.Options{FS: inj}
	})
	createTenant(t, ts.URL, `{"name":"a","seed":3,"scale":0.01}`, nil)
	createTenant(t, ts.URL, `{"name":"b","seed":4,"scale":0.01}`, nil)

	ev := `{"events":[{"system":2,"node":0,"category":"HW","hw":"CPU"}]}`
	for _, name := range []string{"a", "b"} {
		if resp, b := doReq(t, http.MethodPost, ts.URL+"/v1/d/"+name+"/events", ev, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy ingest into %s = %d; body: %s", name, resp.StatusCode, b)
		}
	}

	// The disk fills; only b writes while it is full, so only b latches.
	inj.SetDiskFull(true)
	resp, b := doReq(t, http.MethodPost, ts.URL+"/v1/d/b/events", ev, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disk-full ingest into b = %d, want 503; body: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("X-Read-Only") != "true" {
		t.Errorf("disk-full 503 missing X-Read-Only; got %q", resp.Header.Get("X-Read-Only"))
	}
	inj.SetDiskFull(false)

	// b's latch is sticky until an upkeep round probes: reads of its
	// readiness still say read-only, while sibling a and the default tenant
	// ingest normally.
	var ready map[string]any
	getJSON(t, ts.URL+"/v1/d/b/readyz", http.StatusOK, &ready)
	if ready["status"] != "read-only" {
		t.Fatalf("latched tenant readyz = %v, want read-only", ready["status"])
	}
	getJSON(t, ts.URL+"/v1/d/a/readyz", http.StatusOK, &ready)
	if ready["status"] != "ready" {
		t.Fatalf("sibling readyz = %v, want ready", ready["status"])
	}
	if resp, b := doReq(t, http.MethodPost, ts.URL+"/v1/d/a/events", ev, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("sibling ingest while b latched = %d; body: %s", resp.StatusCode, b)
	}
	if resp, b := postEvents(t, ts.URL, `{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("default ingest while b latched = %d; body: %s", resp.StatusCode, b)
	}

	// The root readiness view stays ready (its own fleet is fine) and its
	// per-dataset section names exactly who is degraded.
	var rootReady struct {
		Status   string `json:"status"`
		Datasets map[string]struct {
			Status string `json:"status"`
		} `json:"datasets"`
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &rootReady)
	if rootReady.Status != "ready" {
		t.Fatalf("root readyz = %q, want ready", rootReady.Status)
	}
	if got := rootReady.Datasets["b"].Status; got != "read-only" {
		t.Errorf("root readyz datasets.b = %q, want read-only", got)
	}
	if got := rootReady.Datasets["a"].Status; got != "ready" {
		t.Errorf("root readyz datasets.a = %q, want ready", got)
	}

	// Space is back, but b's writes stay gated until a round probes.
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/d/b/events", ev, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest into b before the probe = %d, want 503", resp.StatusCode)
	}
	// The round probes b, clears its latch, and b's next write lands.
	s.SuperviseTick(context.Background())
	if resp, b := doReq(t, http.MethodPost, ts.URL+"/v1/d/b/events", ev, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery ingest into b = %d; body: %s", resp.StatusCode, b)
	}
	getJSON(t, ts.URL+"/v1/d/b/readyz", http.StatusOK, &ready)
	if ready["status"] != "ready" {
		t.Errorf("recovered tenant readyz = %v, want ready", ready["status"])
	}
}

// TestCompareCondProbDifferential: each side of /v1/compare/condprob is
// exactly what querying that dataset alone returns — same numbers from the
// same cache keys — and the pinned versions are surfaced per dataset.
func TestCompareCondProbDifferential(t *testing.T) {
	ts, _ := newTestServer(t, func(cfg *Config) { cfg.TenantRoot = t.TempDir() })
	createTenant(t, ts.URL, `{"name":"a","seed":3,"scale":0.02}`, nil)
	createTenant(t, ts.URL, `{"name":"b","seed":4,"scale":0.02}`, nil)

	const q = "anchor=HW&window=week"
	resp, body := getRaw(t, ts.URL+"/v1/compare/condprob?datasets=a,b&"+q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare = %d; body: %s", resp.StatusCode, body)
	}
	var cmp struct {
		Datasets []string                   `json:"datasets"`
		Results  map[string]json.RawMessage `json:"results"`
		Diff     []condProbDiffJSON         `json:"diff"`
	}
	if err := json.Unmarshal(body, &cmp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cmp.Datasets, []string{"a", "b"}) {
		t.Fatalf("datasets = %v", cmp.Datasets)
	}
	versions := map[string]string{}
	for _, name := range cmp.Datasets {
		direct, db := getRaw(t, ts.URL+"/v1/d/"+name+"/condprob?"+q)
		if direct.StatusCode != http.StatusOK {
			t.Fatalf("direct %s = %d; body: %s", name, direct.StatusCode, db)
		}
		versions[name] = direct.Header.Get("X-Dataset-Version")
		if !bytes.Equal(cmp.Results[name], bytes.TrimSuffix(db, []byte("\n"))) {
			t.Errorf("compare side %s differs from standalone answer:\n%s\nvs\n%s", name, cmp.Results[name], db)
		}
	}
	wantHeader := fmt.Sprintf("a:%s,b:%s", versions["a"], versions["b"])
	if got := resp.Header.Get("X-Compare-Versions"); got != wantHeader {
		t.Errorf("X-Compare-Versions = %q, want %q", got, wantHeader)
	}
	if len(cmp.Diff) != 1 || cmp.Diff[0].Dataset != "b" || cmp.Diff[0].Baseline != "a" {
		t.Fatalf("diff rows = %+v", cmp.Diff)
	}

	// The default tenant participates in comparisons under its reserved
	// name, against the unprefixed endpoint's answer.
	resp, body = getRaw(t, ts.URL+"/v1/compare/condprob?datasets=default,a&"+q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare with default = %d; body: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cmp); err != nil {
		t.Fatal(err)
	}
	_, db := getRaw(t, ts.URL+"/v1/condprob?"+q)
	if !bytes.Equal(cmp.Results["default"], bytes.TrimSuffix(db, []byte("\n"))) {
		t.Errorf("compare side default differs from /v1/condprob:\n%s\nvs\n%s", cmp.Results["default"], db)
	}

	// Malformed dataset lists are rejected before any tenant work.
	for _, bad := range []string{
		"datasets=a",
		"datasets=a,a",
		"datasets=a&datasets=b",
		"datasets=a,b,c,d,e,f,g,h,i",
	} {
		if resp, _ := getRaw(t, ts.URL+"/v1/compare/condprob?"+bad+"&"+q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("compare %q = %d, want 400", bad, resp.StatusCode)
		}
	}
	if resp, _ := getRaw(t, ts.URL+"/v1/compare/condprob?datasets=a,nosuch&"+q); resp.StatusCode != http.StatusNotFound {
		t.Errorf("compare with unknown dataset = %d, want 404", resp.StatusCode)
	}
}

// TestCompareRatesDifferential: same bit-identity contract for the rate
// tables, plus the shape of the baseline diff.
func TestCompareRatesDifferential(t *testing.T) {
	ts, _ := newTestServer(t, func(cfg *Config) { cfg.TenantRoot = t.TempDir() })
	createTenant(t, ts.URL, `{"name":"a","seed":3,"scale":0.02}`, nil)
	createTenant(t, ts.URL, `{"name":"b","seed":4,"scale":0.02}`, nil)

	const q = "window=month"
	resp, body := getRaw(t, ts.URL+"/v1/compare/rates?datasets=a,b&"+q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare rates = %d; body: %s", resp.StatusCode, body)
	}
	var cmp struct {
		Datasets []string                   `json:"datasets"`
		Results  map[string]json.RawMessage `json:"results"`
		Diff     []ratesDiffJSON            `json:"diff"`
	}
	if err := json.Unmarshal(body, &cmp); err != nil {
		t.Fatal(err)
	}
	typed := map[string]ratesJSON{}
	for _, name := range []string{"a", "b"} {
		direct, db := getRaw(t, ts.URL+"/v1/d/"+name+"/rates?"+q)
		if direct.StatusCode != http.StatusOK {
			t.Fatalf("direct rates %s = %d; body: %s", name, direct.StatusCode, db)
		}
		if !bytes.Equal(cmp.Results[name], bytes.TrimSuffix(db, []byte("\n"))) {
			t.Errorf("rates side %s differs from standalone answer:\n%s\nvs\n%s", name, cmp.Results[name], db)
		}
		var r ratesJSON
		if err := json.Unmarshal(db, &r); err != nil {
			t.Fatal(err)
		}
		typed[name] = r
	}
	if len(cmp.Diff) != 1 {
		t.Fatalf("diff rows = %+v", cmp.Diff)
	}
	d := cmp.Diff[0]
	if d.Dataset != "b" || d.Baseline != "a" {
		t.Fatalf("diff identity = %+v", d)
	}
	if want := safeRatio(typed["b"].Overall.PerNodeYear, typed["a"].Overall.PerNodeYear); d.OverallRatio != want {
		t.Errorf("overall ratio = %v, want %v", d.OverallRatio, want)
	}
	if len(d.Categories) != len(trace.Categories) || len(d.Lift) != len(trace.Categories) {
		t.Fatalf("diff table sizes = %d cats, %d lift, want %d", len(d.Categories), len(d.Lift), len(trace.Categories))
	}
	for _, row := range d.Categories {
		if want := safeRatio(row.OtherRate, row.BaseRate); row.Ratio != want {
			t.Errorf("category %s ratio = %v, want %v", row.Category, row.Ratio, want)
		}
	}
	for i := 1; i < len(d.Categories); i++ {
		if ratioSortKey(d.Categories[i-1].Ratio) < ratioSortKey(d.Categories[i].Ratio) {
			t.Errorf("category diff not sorted by divergence at %d: %+v", i, d.Categories)
		}
	}
}

// TestTwoTenantKillOneShard: a dead shard in the default tenant's fabric
// degrades only the default tenant — scatter answers turn partial, strict
// comparative bodies refuse — while a named tenant's fabric keeps answering
// completely.
func TestTwoTenantKillOneShard(t *testing.T) {
	clock := &fakeClock{t: day(100)}
	cfg := Config{
		Dataset:    fleetDS(),
		Window:     trace.Day,
		Now:        clock.Now,
		Shards:     3,
		TenantRoot: t.TempDir(),
		Logf:       func(string, ...any) {},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	createTenant(t, ts.URL, `{"name":"b","seed":4,"scale":0.01}`, nil)

	victim := s.fabric.owner[1]
	if err := s.KillShard(victim); err != nil {
		t.Fatal(err)
	}

	// Default tenant: cross-system risk degrades to a partial answer and
	// the strict rate tables refuse outright.
	resp, body := getRaw(t, ts.URL+"/v1/risk/top?k=8")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Partial") != "true" {
		t.Fatalf("degraded risk/top = %d, X-Partial %q; body: %s", resp.StatusCode, resp.Header.Get("X-Partial"), body)
	}
	if resp, _ := getRaw(t, ts.URL+"/v1/rates"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("strict rates over dead shard = %d, want 503", resp.StatusCode)
	}
	if resp, _ := getRaw(t, ts.URL+"/v1/compare/rates?datasets=default,b"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compare spanning dead shard = %d, want 503", resp.StatusCode)
	}

	// The named tenant's fabric is untouched: full answers, no partial
	// marker, rates and readiness intact.
	resp, body = getRaw(t, ts.URL+"/v1/d/b/risk/top?k=4")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Partial") != "" {
		t.Fatalf("tenant risk/top = %d, X-Partial %q; body: %s", resp.StatusCode, resp.Header.Get("X-Partial"), body)
	}
	if resp, body := getRaw(t, ts.URL+"/v1/d/b/rates"); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant rates = %d; body: %s", resp.StatusCode, body)
	}
	var ready map[string]any
	getJSON(t, ts.URL+"/v1/d/b/readyz", http.StatusOK, &ready)
	if ready["status"] != "ready" {
		t.Fatalf("tenant readyz = %v, want ready", ready["status"])
	}
	// The root's own readiness reports the degradation.
	if resp, _ := getRaw(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("root readyz with dead shard = %d, want 503", resp.StatusCode)
	}
}

// TestTenantLifecycleConcurrent hammers create/query/delete from many
// goroutines; run under -race it pins the registry's server-side locking
// discipline (acquisitions vs drain vs dispatch).
func TestTenantLifecycleConcurrent(t *testing.T) {
	ts, _ := newTestServer(t, func(cfg *Config) { cfg.TenantRoot = t.TempDir() })

	const tenants = 4
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", i)
			createTenant(t, ts.URL, fmt.Sprintf(`{"name":%q,"seed":%d,"scale":0.01}`, name, i+1), nil)
			for j := 0; j < 5; j++ {
				resp, b := doReq(t, http.MethodGet, ts.URL+"/v1/d/"+name+"/risk/top?k=2", "", nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("tenant %s query = %d; body: %s", name, resp.StatusCode, b)
					return
				}
			}
			if i%2 == 0 {
				resp, b := doReq(t, http.MethodDelete, ts.URL+"/v1/datasets/"+name, "", nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("tenant %s delete = %d; body: %s", name, resp.StatusCode, b)
				}
			}
		}(i)
	}
	// Concurrent readers of the shared surfaces: list, metrics, readiness.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				doReq(t, http.MethodGet, ts.URL+"/v1/datasets", "", nil)
				doReq(t, http.MethodGet, ts.URL+"/readyz", "", nil)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()

	var list struct {
		Datasets []datasetStatusJSON `json:"datasets"`
	}
	resp, b := doReq(t, http.MethodGet, ts.URL+"/v1/datasets", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final list = %d; body: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	want := 1 + tenants/2 // default plus the odd-numbered survivors
	if len(list.Datasets) != want {
		t.Fatalf("surviving datasets = %+v, want %d rows", list.Datasets, want)
	}
}
