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
	if body := s.writeJSON(rec, http.StatusOK, struct{ Risk float64 }{math.NaN()}); body != nil {
		t.Errorf("writeJSON returned %q for an unencodable value, want nil", body)
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
