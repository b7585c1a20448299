package server

import (
	"container/list"
	"context"
	"sync"
)

// idemCache makes POST /v1/events retries safe under a client-supplied
// X-Idempotency-Key: the first request to present a key owns it, and every
// later request with the same key replays the owner's recorded response
// instead of ingesting the events again. Ownership is reserved atomically
// at request start, so two concurrent duplicates can never both ingest —
// the loser waits on the owner's outcome (see claim), closing the
// check-then-act window a get/put API would leave.
//
// Completed responses live in a bounded LRU: replay protection is exact
// within one process lifetime and degrades to at-least-once across
// restarts or after eviction — the WAL makes duplicate observes safe,
// just visible in the observed counter. In-flight reservations are not
// evictable; their population is bounded by the route's admission limit.
type idemCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // completed responses
	order   *list.List               // front = most recently used
	pending map[string]*idemPending  // reserved, outcome not yet recorded
}

// idemResult is one remembered response.
type idemResult struct {
	key  string
	code int
	body []byte
}

// idemPending is a key reservation. done is closed when the owner records
// a response or abandons the key — waiters then claim again: replaying the
// result or taking ownership themselves.
type idemPending struct {
	done chan struct{}
}

func newIdemCache(max int) *idemCache {
	if max < 1 {
		max = 1
	}
	return &idemCache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		pending: make(map[string]*idemPending),
	}
}

// claim resolves key for a request: the response an earlier request
// recorded (with a nil reservation), or a reservation the caller now owns
// and must complete or abandon. A concurrent owner is waited out instead
// of ingesting a duplicate: its recorded response is then replayed, or its
// abandoned key taken over. claim fails only when ctx ends first.
func (c *idemCache) claim(ctx context.Context, key string) (idemResult, *idemPending, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			res := *el.Value.(*idemResult)
			c.mu.Unlock()
			return res, nil, nil
		}
		p, busy := c.pending[key]
		if !busy {
			p = &idemPending{done: make(chan struct{})}
			c.pending[key] = p
		}
		c.mu.Unlock()
		if !busy {
			return idemResult{}, p, nil
		}
		select {
		case <-p.done:
		case <-ctx.Done():
			return idemResult{}, nil, ctx.Err()
		}
	}
}

// complete records the owner's response, evicting the least recently used
// entry past the size bound, and wakes waiters to replay it.
func (c *idemCache) complete(key string, p *idemPending, code int, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, key)
	close(p.done)
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = c.order.PushFront(&idemResult{key: key, code: code, body: body})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*idemResult).key)
	}
}

// abandon releases a reservation without recording a response (the request
// died before reaching an outcome worth replaying); waiters re-contend.
func (c *idemCache) abandon(key string, p *idemPending) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, key)
	close(p.done)
}
