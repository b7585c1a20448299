package server

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// flightCache is a bounded LRU with singleflight fill: concurrent Do calls
// for one key share one computation instead of each running it. It backs
// two tables: the analysis result cache (the query executor's rendered
// bodies and per-shard parts, whose keys embed the pinned snapshot version,
// so entries never go stale and eviction is purely a size bound) and the
// idempotency-key table of POST /v1/events (the first request's recorded
// response, replayed to every later request with its key). Keys being
// computed are not evictable; their population is bounded by admission.
type flightCache[V any] struct {
	mu       sync.Mutex
	max      int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*flightCall[V]
}

type cacheEntry[V any] struct {
	key string
	val V
}

// flightCall is one in-flight computation other callers can wait on.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// errFlightPanicked is what waiters on a computation that panicked get.
var errFlightPanicked = errors.New("singleflight: computation panicked")

func newFlightCache[V any](size int) *flightCache[V] {
	return &flightCache[V]{
		max:      max(size, 1),
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]*flightCall[V]),
	}
}

// resultCacheSize bounds each tenant's analysis result cache, in entries.
const resultCacheSize = 256

// newResultCache builds the analysis result cache.
func newResultCache(size int) *flightCache[any] { return newFlightCache[any](size) }

// outcome reports how a Do call was satisfied.
type outcome int

const (
	outcomeHit    outcome = iota // served from cache
	outcomeMiss                  // computed by this call
	outcomeShared                // waited on another call's computation
)

// Get returns the cached value for key without computing anything — the
// degraded path the circuit breaker falls back to while compute is
// disabled.
func (c *flightCache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// Do returns the cached value for key, or computes it exactly once across
// concurrent callers. Errors are not cached: a failed computation leaves the
// key absent so the next call computes again. A waiter returns when its own
// ctx ends, with ctx's error. A panicking fn releases the key and wakes its
// waiters (with errFlightPanicked) before the panic continues.
func (c *flightCache[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		val := el.Value.(*cacheEntry[V]).val
		c.mu.Unlock()
		return val, outcomeHit, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-call.done:
			return call.val, outcomeShared, call.err
		case <-ctx.Done():
			var zero V
			return zero, outcomeShared, ctx.Err()
		}
	}
	call := &flightCall[V]{done: make(chan struct{}), err: errFlightPanicked}
	c.inflight[key] = call
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if call.err == nil {
			c.entries[key] = c.order.PushFront(&cacheEntry[V]{key: key, val: call.val})
			for c.order.Len() > c.max {
				oldest := c.order.Back()
				c.order.Remove(oldest)
				delete(c.entries, oldest.Value.(*cacheEntry[V]).key)
			}
		}
		c.mu.Unlock()
		close(call.done)
	}()
	call.val, call.err = fn()
	return call.val, outcomeMiss, call.err
}

// Len returns the number of cached entries.
func (c *flightCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
