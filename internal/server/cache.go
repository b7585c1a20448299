package server

import (
	"container/list"
	"sync"
)

// resultCache is a bounded LRU of computed analysis results (the query
// executor's rendered bodies and per-shard parts) with singleflight
// semantics: concurrent requests for the same key block on one computation
// instead of each recomputing a dataset-scan-heavy kernel. Keys embed the
// pinned snapshot version, so entries never go stale and eviction is
// purely a size bound.
type resultCache struct {
	mu       sync.Mutex
	max      int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*flightCall
}

type cacheEntry struct {
	key string
	val any
}

// flightCall is one in-flight computation other requests can wait on.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:      max,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]*flightCall),
	}
}

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
func (c *resultCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Do returns the cached value for key, or computes it exactly once across
// concurrent callers. Errors are not cached: a failed computation leaves the
// key absent so the next request retries.
func (c *resultCache) Do(key string, compute func() (any, error)) (any, outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return val, outcomeHit, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-call.done
		return call.val, outcomeShared, call.err
	}
	call := &flightCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	call.val, call.err = compute()
	close(call.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: call.val})
		for c.order.Len() > c.max {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
		}
	}
	c.mu.Unlock()
	return call.val, outcomeMiss, call.err
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
