package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBodiesAreCompactLines pins the one response encoder's output: every
// GET route in the route table, and its /v1/d/{dataset}/ mirror, answers
// with exactly one line of compact JSON ending in a newline.
func TestBodiesAreCompactLines(t *testing.T) {
	ts, srv, _ := newTestServerFull(t, nil)
	// An in-window event gives the risk routes nested rows to render.
	postEvents(t, ts.URL, `{"events":[{"system":1,"node":0,"category":"HW","hw":"CPU"}]}`)
	requests := map[string]string{
		"/healthz":         "/healthz",
		"/readyz":          "/readyz",
		"/v1/risk/top":     "/v1/risk/top?k=4",
		"/v1/risk/{node}":  "/v1/risk/0?system=1",
		"/v1/condprob":     "/v1/condprob?anchor=HW&window=week",
		"/v1/correlations": "/v1/correlations?window=week&min_support=1&min_confidence=0.01",
		"/v1/anomalies":    "/v1/anomalies?k=4",
		"/v1/snapshot":     "/v1/snapshot",
		"/v1/rates":        "/v1/rates?window=week",
	}
	for pattern := range srv.routes() {
		path, ok := strings.CutPrefix(pattern, "GET ")
		if !ok {
			continue
		}
		target, ok := requests[path]
		if !ok {
			t.Fatalf("no request for GET route %s; add one", path)
		}
		for _, url := range []string{target, "/v1/d/default" + strings.TrimPrefix(target, "/v1")} {
			resp, body := getRaw(t, ts.URL+url)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d; body: %s", url, resp.StatusCode, body)
			}
			line, ok := bytes.CutSuffix(body, []byte("\n"))
			if !ok || bytes.IndexByte(line, '\n') >= 0 {
				t.Errorf("GET %s: body is not one newline-terminated line:\n%s", url, body)
				continue
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, line); err != nil {
				t.Fatalf("GET %s: bad JSON: %v", url, err)
			}
			if !bytes.Equal(compact.Bytes(), line) {
				t.Errorf("GET %s: body is not compact JSON:\n%s", url, body)
			}
		}
	}
}

// TestWriteJSONEncodeFailure: a value that cannot be encoded answers 500
// with the error envelope, not its intended status with an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	var logged []string
	s := &Server{logf: func(format string, args ...any) { logged = append(logged, format) }}
	rec := httptest.NewRecorder()
	if s.writeJSON(rec, http.StatusOK, struct{ Risk float64 }{math.NaN()}) {
		t.Error("writeJSON reported an unencodable value as encoded")
	}
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var env apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" {
		t.Errorf("body = %q, want the error envelope (%v)", rec.Body.Bytes(), err)
	}
	if len(logged) != 1 {
		t.Errorf("logged %d lines, want 1", len(logged))
	}
}

// TestWriteJSONIsMarshalLine: the pooled encoder writes exactly the bytes
// of json.Marshal plus a newline (HTML escaping included), a kept body is
// the caller's own copy that later responses through the pool do not
// overwrite, and a body too large to pool still encodes whole.
func TestWriteJSONIsMarshalLine(t *testing.T) {
	s := &Server{logf: t.Logf}
	big := strings.Repeat("x", 2*maxPooledBody)
	var kept []byte
	for i, v := range []any{
		map[string]any{"html": "<a href=\"x\">&</a>", "n": 1.5, "list": []int{1, 2}},
		riskTopResponse{Window: "24h0m0s", Scores: []scoreJSON{}},
		apiError{Error: big},
		[]string{"after"},
	} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		rec := httptest.NewRecorder()
		var keep *[]byte
		if i == 0 {
			keep = &kept
		}
		if !s.writeJSONKeep(rec, http.StatusOK, v, keep) {
			t.Fatalf("value %d did not encode", i)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("value %d: body %q, want %q", i, rec.Body.Bytes(), want)
		}
		if i == 0 && !bytes.Equal(kept, want) {
			t.Errorf("kept body %q, want %q", kept, want)
		}
	}
	if want := "{\"html\":\"\\u003ca href=\\\"x\\\"\\u003e\\u0026\\u003c/a\\u003e\",\"list\":[1,2],\"n\":1.5}\n"; string(kept) != want {
		t.Errorf("kept body after later responses = %q, want %q", kept, want)
	}
}
