package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// lanes is the generator's connection count: one keep-alive connection per
// lane, one request in flight per lane.
const lanes = 2

// result is one executed op's measurements. Latency is the service time
// plus the time the op was due while its lanes were busy, so a stalled
// server is charged for the backlog it causes (coordinated-omission
// corrected) but the generator's timer oversleep on an idle lane is not.
type result struct {
	lane int
	// intended is when the op was due (closed loop: when a lane claimed it);
	// claimed when a lane took it; sent when its request started; done when
	// its response body was read.
	intended, claimed, sent, done time.Time

	status   int // 0 when no response arrived
	cache    string
	partial  bool
	badJSON  bool
	accepted int // writes: events the server acknowledged
}

func (r *result) ok() bool { return r.status/100 == 2 && !r.badJSON }

func (r *result) latency() time.Duration { return r.done.Sub(r.sent) + r.queueWait() }

// queueWait is how long the op was due while every lane it may use was busy.
func (r *result) queueWait() time.Duration { return max(0, r.claimed.Sub(r.intended)) }

// sendLag is how late the request started once the op was both due and
// claimed: timer oversleep plus dispatch cost.
func (r *result) sendLag() time.Duration {
	ready := r.intended
	if r.claimed.After(ready) {
		ready = r.claimed
	}
	return max(0, r.sent.Sub(ready))
}

// laneQueue hands ops to lanes. Writes go only to lane 0, in stream order.
// Reads go to the other lanes, and to lane 0 only when one comes due while
// no other lane has claimed it — so a write waits behind a read only when
// every lane was needed. Ops are in due-time order.
type laneQueue struct {
	mu            sync.Mutex
	reads, writes []int // op indices in stream order
	ri, wi        int
}

func newLaneQueue(ops []op) *laneQueue {
	q := &laneQueue{}
	for i, o := range ops {
		if o.kind == kWrite {
			q.writes = append(q.writes, i)
		} else {
			q.reads = append(q.reads, i)
		}
	}
	return q
}

// claim returns the next op index for lane, given each op's due time. When
// lane 0's next op is a read not yet due, claim returns -1 and the time to
// ask again. It returns false when nothing is left for the lane.
func (q *laneQueue) claim(lane int, due func(int) time.Time, now time.Time) (int, time.Time, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	haveR, haveW := q.ri < len(q.reads), q.wi < len(q.writes)
	if lane == 0 && haveW && (!haveR || q.writes[q.wi] < q.reads[q.ri]) {
		q.wi++
		return q.writes[q.wi-1], time.Time{}, true
	}
	if !haveR {
		return 0, time.Time{}, false
	}
	if t := due(q.reads[q.ri]); lane == 0 && t.After(now) {
		return -1, t, true
	}
	q.ri++
	return q.reads[q.ri-1], time.Time{}, true
}

// generator runs ops over a fixed set of lanes.
type generator struct {
	lanes int
	now   func() time.Time
	// sleepUntil blocks until t or until ctx is done.
	sleepUntil func(ctx context.Context, t time.Time) error
	// do executes one op on a lane and fills r's response fields.
	do func(ctx context.Context, lane int, o *op, r *result)
}

func newGenerator(t *httpTarget) *generator {
	return &generator{
		lanes: lanes,
		now:   time.Now,
		sleepUntil: func(ctx context.Context, at time.Time) error {
			wait := time.Until(at)
			if wait <= 0 {
				return nil
			}
			tm := time.NewTimer(wait)
			defer tm.Stop()
			select {
			case <-tm.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		do: t.do,
	}
}

// run executes every op and returns their results, indexed like ops. Open
// loop: op i is due at start+ops[i].at whatever the server does. Closed
// loop: each lane sends its next op as soon as the previous one returns.
func (g *generator) run(ctx context.Context, ops []op, open bool) []result {
	res := make([]result, len(ops))
	q := newLaneQueue(ops)
	start := g.now()
	due := func(i int) time.Time {
		if open {
			return start.Add(ops[i].at)
		}
		return time.Time{}
	}
	var wg sync.WaitGroup
	for lane := 0; lane < g.lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for ctx.Err() == nil {
				now := g.now()
				i, wake, ok := q.claim(lane, due, now)
				if !ok {
					return
				}
				if i < 0 {
					if g.sleepUntil(ctx, wake) != nil {
						return
					}
					continue
				}
				r := &res[i]
				r.lane = lane
				r.claimed = now
				r.intended = now
				if open {
					r.intended = due(i)
					if err := g.sleepUntil(ctx, r.intended); err != nil {
						return
					}
				}
				r.sent = g.now()
				g.do(ctx, lane, &ops[i], r)
				r.done = g.now()
			}
		}(lane)
	}
	wg.Wait()
	return res
}

// httpTarget sends ops to one server, one client (and so one connection)
// per lane.
type httpTarget struct {
	base    string
	clients []*http.Client
	bufs    []bytes.Buffer
}

func newHTTPTarget(base string) *httpTarget {
	t := &httpTarget{base: base, bufs: make([]bytes.Buffer, lanes)}
	for i := 0; i < lanes; i++ {
		t.clients = append(t.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				Proxy:               nil,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return t
}

func (t *httpTarget) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

func (t *httpTarget) do(ctx context.Context, lane int, o *op, r *result) {
	method := http.MethodGet
	var body io.Reader
	if o.kind == kWrite {
		method = http.MethodPost
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+o.path, body)
	if err != nil {
		return
	}
	if o.kind == kWrite {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.clients[lane].Do(req)
	if err != nil {
		return
	}
	buf := &t.bufs[lane]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return
	}
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Cache")
	r.partial = resp.Header.Get("X-Partial") == "true"
	if r.status/100 != 2 {
		return
	}
	if !json.Valid(buf.Bytes()) {
		r.badJSON = true
		return
	}
	if o.kind == kWrite {
		var ack struct {
			Accepted int `json:"accepted"`
		}
		if json.Unmarshal(buf.Bytes(), &ack) != nil {
			r.badJSON = true
		}
		r.accepted = ack.Accepted
	}
}
