package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	srv := span{Start: 1000, End: 11000}
	layers := []span{{Start: 12000, End: 15000}, {Start: 16000, End: 17000}}
	if got := selfTime(srv, layers); got != 6000*time.Nanosecond {
		t.Errorf("self time %v, want 6µs", got)
	}
	if got := selfTime(srv, nil); got != 10*time.Microsecond {
		t.Errorf("self time with no replayed layers %v, want the whole server span", got)
	}
	if got := selfTime(srv, []span{{Start: 0, End: 12000}}); got >= 0 {
		t.Errorf("a layer slower than the server span must show as negative self time, got %v", got)
	}
}

func TestClientSpans(t *testing.T) {
	epoch := time.Unix(0, 0)
	rec := &recorder{epoch: epoch}
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	ops := []op{{seq: 4, kind: kCondProb}, {seq: 5, kind: kWrite}}
	res := []result{
		{intended: at(10), claimed: at(12), sent: at(13), done: at(20), status: 200, cache: "MISS"},
		{}, // never ran: no spans
	}
	rec.recordClient(ops, res)
	if len(rec.spans) != 3 {
		t.Fatalf("%d spans, want op, queue and http", len(rec.spans))
	}
	root, queue, http := rec.spans[0], rec.spans[1], rec.spans[2]
	if root.Name != "op" || root.Parent != 0 || root.Attrs["route"] != "condprob" || root.Attrs["cache"] != "MISS" {
		t.Errorf("root span %+v", root)
	}
	if queue.Parent != root.ID || queue.dur() != 2*time.Millisecond {
		t.Errorf("queue span %+v", queue)
	}
	if http.Parent != root.ID || http.dur() != 7*time.Millisecond || http.Trace != root.Trace {
		t.Errorf("http span %+v", http)
	}
}
