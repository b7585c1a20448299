package server

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// riskQuery is the parsed form of /v1/risk/{node} and /v1/risk/top query
// strings.
type riskQuery struct {
	// System restricts the query to one system; 0 means "the only system"
	// for node queries and "all systems" for top queries.
	System int
	// Node is the path's node ID (node queries only).
	Node int
	// K bounds /v1/risk/top output.
	K int
	// At pins the scoring time (RFC3339); zero means "now". Deterministic
	// responses let recovery tests compare servers byte-for-byte.
	At time.Time
}

// at is the scoring time: the pinned ?at=, or now.
func (q riskQuery) at(now time.Time) time.Time {
	if q.At.IsZero() {
		return now
	}
	return q.At
}

// maxTopK caps /v1/risk/top so one request cannot serialize every node of
// a large catalog.
const maxTopK = 1000

// queryParams is every parser's query-string walker: it parses raw,
// rejects repeated parameters, and hands each parameter to set in sorted key
// order, so a query with several bad parameters always fails on the same
// one. Unknown parameters are the parser's default case (unknownParam):
// typos fail loudly instead of silently falling back to defaults.
func queryParams(raw string, set func(key, val string) error) error {
	vals, err := url.ParseQuery(raw)
	if err != nil {
		return fmt.Errorf("bad query string: %w", err)
	}
	var buf [8]string // a stack buffer: real queries carry a few keys
	keys := buf[:0]
	for k := range vals {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, key := range keys {
		if len(vals[key]) != 1 {
			return fmt.Errorf("parameter %q repeated", key)
		}
		if err := set(key, vals[key][0]); err != nil {
			return err
		}
	}
	return nil
}

func unknownParam(key string) error { return fmt.Errorf("unknown parameter %q", key) }

// parseRiskQuery parses a raw /v1/risk query string (without the node path
// element).
func parseRiskQuery(raw string) (riskQuery, error) {
	q := riskQuery{K: 10}
	err := queryParams(raw, func(key, v string) (err error) {
		switch key {
		case "system":
			q.System, err = strconv.Atoi(v)
			if err != nil || q.System < 0 {
				return fmt.Errorf("bad system %q", v)
			}
		case "k":
			q.K, err = strconv.Atoi(v)
			if err != nil || q.K < 1 {
				return fmt.Errorf("k must be a positive integer, got %q", v)
			}
			// Oversized k is clamped, not rejected: "give me everything"
			// is a reasonable ask, but one request must not serialize an
			// unbounded catalog. The handler clamps further to the node
			// count in scope.
			q.K = min(q.K, maxTopK)
		case "at":
			if q.At, err = time.Parse(time.RFC3339, v); err != nil {
				return fmt.Errorf("bad at %q (want RFC3339)", v)
			}
		default:
			return unknownParam(key)
		}
		return nil
	})
	return q, err
}

// condProbQuery is the parsed, canonicalized form of a /v1/condprob query.
type condProbQuery struct {
	anchor, target string // canonical event-spec labels ("" = any failure)
	window         time.Duration
	scope          analysis.Scope
	group          int // 0 = all systems
}

// Key returns the canonical cache key: two requests that mean the same
// query map to the same key regardless of parameter order or label case.
func (q condProbQuery) Key() string {
	return fmt.Sprintf("anchor=%s&target=%s&window=%s&scope=%s&group=%d",
		q.anchor, q.target, q.window, q.scope, q.group)
}

// parseCondProbQuery parses a raw /v1/condprob query string in the event,
// window and scope vocabulary cmd/hpcanalyze shares (trace.ParseEventSpec,
// trace.ParseWindow, analysis.ParseScope).
func parseCondProbQuery(raw string) (condProbQuery, error) {
	q := condProbQuery{window: trace.Week, scope: analysis.ScopeNode}
	err := queryParams(raw, func(key, v string) (err error) {
		switch key {
		case "anchor":
			if q.anchor, _, err = trace.ParseEventSpec(v); err != nil {
				return fmt.Errorf("anchor: %w", err)
			}
		case "target":
			if q.target, _, err = trace.ParseEventSpec(v); err != nil {
				return fmt.Errorf("target: %w", err)
			}
		case "window":
			q.window, err = trace.ParseWindow(v)
		case "scope":
			q.scope, err = analysis.ParseScope(v)
		case "group":
			q.group, err = strconv.Atoi(v)
			if err != nil || q.group < 0 || q.group > 2 {
				return fmt.Errorf("group must be 0, 1 or 2, got %q", v)
			}
		default:
			return unknownParam(key)
		}
		return err
	})
	return q, err
}

// preds resolves the canonical anchor/target labels back into predicates.
// Canonical labels always re-parse; a failure here is a bug.
func (q condProbQuery) preds() (anchor, target trace.Pred, err error) {
	if _, anchor, err = trace.ParseEventSpec(q.anchor); err != nil {
		return nil, nil, err
	}
	_, target, err = trace.ParseEventSpec(q.target)
	return anchor, target, err
}
