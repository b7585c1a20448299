// Package checkpoint turns the paper's correlation findings into an
// application: checkpoint-interval policies for long-running jobs, replayed
// against node failure histories. A fixed-interval policy near Young's
// optimum is the classical baseline; the risk-aware policy exploits
// Section III (a node that just failed is 5-20X more likely to fail again)
// by checkpointing more aggressively inside the post-failure window.
//
// The serving layer reuses the same Policy interface to space its own
// engine snapshots: internal/risk.Journal consults a Policy (passing the
// engine's last observed failure as lastFailure) to decide when the next
// WAL-compacting snapshot is due — so snapshot cadence and the paper's
// checkpoint-interval machinery share one vocabulary, and a risk-aware
// policy snapshots more eagerly right after a failure burst, exactly when
// the state is changing fastest.
package checkpoint

import (
	"errors"
	"math"
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// Policy chooses the next checkpoint interval.
type Policy interface {
	// Interval returns the checkpoint spacing to use at time t, given the
	// time of the node's most recent failure (zero when none yet).
	Interval(t, lastFailure time.Time) time.Duration
	// Name labels the policy in reports.
	Name() string
}

// Fixed checkpoints at a constant interval.
type Fixed struct {
	Every time.Duration
}

// Interval implements Policy.
func (f Fixed) Interval(time.Time, time.Time) time.Duration { return f.Every }

// Name implements Policy.
func (f Fixed) Name() string { return "fixed " + f.Every.String() }

// RiskAware checkpoints at Base spacing normally and at Risky spacing for
// Window after any failure of the node.
type RiskAware struct {
	Base   time.Duration
	Risky  time.Duration
	Window time.Duration
}

// Interval implements Policy.
func (r RiskAware) Interval(t, lastFailure time.Time) time.Duration {
	if !lastFailure.IsZero() && t.Sub(lastFailure) < r.Window {
		return r.Risky
	}
	return r.Base
}

// Name implements Policy.
func (r RiskAware) Name() string { return "risk-aware " + r.Base.String() + "/" + r.Risky.String() }

// YoungInterval returns Young's first-order optimum checkpoint interval
// sqrt(2 * cost * MTBF) for the given checkpoint cost and mean time
// between failures.
func YoungInterval(cost, mtbf time.Duration) time.Duration {
	if cost <= 0 || mtbf <= 0 {
		return 0
	}
	return time.Duration(math.Sqrt(2 * float64(cost) * float64(mtbf)))
}

// Result aggregates a replay.
type Result struct {
	// Lost is work lost to failures (time since last checkpoint at each
	// failure).
	Lost time.Duration
	// Overhead is time spent writing checkpoints.
	Overhead time.Duration
	// Checkpoints and Failures count the replayed events.
	Checkpoints int
	Failures    int
}

// Total returns lost work plus checkpoint overhead — the quantity a policy
// minimizes.
func (r Result) Total() time.Duration { return r.Lost + r.Overhead }

// Add accumulates another result.
func (r *Result) Add(o Result) {
	r.Lost += o.Lost
	r.Overhead += o.Overhead
	r.Checkpoints += o.Checkpoints
	r.Failures += o.Failures
}

// ErrBadConfig reports an invalid replay configuration.
var ErrBadConfig = errors.New("checkpoint: invalid configuration")

// Replay simulates an application running on one node over period,
// checkpointing per policy at the given per-checkpoint cost, and losing
// work back to the last checkpoint at each failure time. failureTimes must
// be sorted ascending.
func Replay(period trace.Interval, failureTimes []time.Time, p Policy, cost time.Duration) (Result, error) {
	if p == nil || cost < 0 || !period.End.After(period.Start) {
		return Result{}, ErrBadConfig
	}
	var res Result
	lastCkpt := period.Start
	var lastFailure time.Time
	t := period.Start
	fi := 0
	next := t.Add(p.Interval(t, lastFailure))
	for t.Before(period.End) {
		var failAt time.Time
		if fi < len(failureTimes) {
			failAt = failureTimes[fi]
		}
		if !failAt.IsZero() && failAt.Before(next) {
			if failAt.Before(t) {
				return Result{}, ErrBadConfig // unsorted failure times
			}
			res.Failures++
			res.Lost += failAt.Sub(lastCkpt)
			lastCkpt = failAt // restart from the last checkpoint's state
			lastFailure = failAt
			t = failAt
			fi++
			next = t.Add(p.Interval(t, lastFailure))
			continue
		}
		if !next.Before(period.End) {
			break
		}
		res.Checkpoints++
		res.Overhead += cost
		lastCkpt = next
		t = next
		next = t.Add(p.Interval(t, lastFailure))
	}
	return res, nil
}

// ReplayNodes replays every node of the given systems against its failure
// history and returns the aggregate. The failures function supplies each
// node's sorted failure times (typically Analyzer.NodeFailures mapped to
// times).
func ReplayNodes(systems []trace.SystemInfo, failures func(system, node int) []time.Time, p Policy, cost time.Duration) (Result, error) {
	var agg Result
	for _, s := range systems {
		for n := 0; n < s.Nodes; n++ {
			r, err := Replay(s.Period, failures(s.ID, n), p, cost)
			if err != nil {
				return Result{}, err
			}
			agg.Add(r)
		}
	}
	return agg, nil
}

// Compare replays several policies over the same nodes and returns results
// in policy order.
func Compare(systems []trace.SystemInfo, failures func(system, node int) []time.Time, cost time.Duration, policies ...Policy) ([]Result, error) {
	out := make([]Result, 0, len(policies))
	for _, p := range policies {
		r, err := ReplayNodes(systems, failures, p, cost)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
