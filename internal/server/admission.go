package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Overload protection. Two mechanisms keep the server answering under
// pressure instead of timing out uniformly:
//
//   - Admission control: each route has a bounded number of concurrently
//     running handlers plus a bounded wait queue. Requests beyond both are
//     shed immediately with 429 and a Retry-After hint — a fast "no" that
//     costs microseconds instead of a slow timeout that costs a handler
//     slot for seconds.
//   - A circuit breaker around the conditional-probability compute path:
//     repeated compute failures (typically timeouts under load) open the
//     circuit, and cache-missing condprob requests are answered 503 with
//     X-Degraded instead of piling onto a struggling compute pool. Cached
//     answers keep flowing. After a cooldown one trial request probes
//     whether compute recovered.

// RouteLimit bounds one route's admission: at most Concurrency handlers
// running and at most Queue more waiting. Zero Concurrency means the route
// is unlimited.
type RouteLimit struct {
	Concurrency int
	Queue       int
}

// limiter enforces one route's RouteLimit.
type limiter struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64
	inflight atomic.Int64
	peak     atomic.Int64 // high-water mark of inflight
	shed     atomic.Uint64
}

func newLimiter(lim RouteLimit) *limiter {
	if lim.Concurrency <= 0 {
		return nil // unlimited
	}
	return &limiter{
		slots:    make(chan struct{}, lim.Concurrency),
		maxQueue: int64(lim.Queue),
	}
}

// admit tries to enter the route: it returns a release func when admitted,
// or false when the request must be shed (queue full or the request's
// context expired while waiting).
func (l *limiter) admit(ctx context.Context) (release func(), ok bool) {
	if l == nil {
		return func() {}, true
	}
	select {
	case l.slots <- struct{}{}:
	default:
		// All slots busy: queue if there is room, else shed.
		if l.queued.Add(1) > l.maxQueue {
			l.queued.Add(-1)
			l.shed.Add(1)
			return nil, false
		}
		select {
		case l.slots <- struct{}{}:
			l.queued.Add(-1)
		case <-ctx.Done():
			l.queued.Add(-1)
			l.shed.Add(1)
			return nil, false
		}
	}
	n := l.inflight.Add(1)
	for {
		p := l.peak.Load()
		if n <= p || l.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return func() {
		l.inflight.Add(-1)
		<-l.slots
	}, true
}

// breakerCooldown is how long an open circuit stays open before one trial
// compute probes recovery.
const breakerCooldown = 10 * time.Second

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a consecutive-failure circuit breaker. Failures are compute
// errors (timeouts, cancellations, internal errors), never bad requests.
type breaker struct {
	mu        sync.Mutex
	threshold int
	now       func() time.Time

	state    int
	failures int
	openedAt time.Time
	trips    uint64 // closed->open transitions, for metrics
}

func newBreaker(threshold int, now func() time.Time) *breaker {
	if threshold <= 0 {
		threshold = 5
	}
	return &breaker{threshold: threshold, now: now}
}

// allow reports whether a compute attempt may proceed. While open, it
// admits a single trial once the cooldown has elapsed (half-open).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= breakerCooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: one trial is already in flight
		return false
	}
}

// report records a compute outcome. Success closes the circuit; threshold
// consecutive failures (or any half-open failure) open it.
func (b *breaker) report(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = breakerClosed
		b.failures = 0
		return
	}
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		if b.state != breakerOpen {
			b.trips++
		}
		b.state = breakerOpen
		b.openedAt = b.now()
		b.failures = 0
	}
}

// snapshot returns (open?, trips) for the metrics endpoint.
func (b *breaker) snapshot() (bool, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerOpen, b.trips
}

// retryAfter is the Retry-After hint (seconds) sent with 429/503 sheds:
// long enough to drain a burst, short enough that clients converge fast.
const retryAfter = "1"
