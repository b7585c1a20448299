package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// TestRiskTopBoundedMatchesFullRanking pins the bounded top-k on both
// routes, unsharded and on four shards (each shard returns only its own
// top k before the merge): ?k=K is the first K rows of the full ranking,
// byte for byte, and ?system=X&k=K is the top K of X itself, read off the
// full ranking — not the rows of X that happen to fall in the fleet-wide
// top K.
//
// The two fabrics are not compared with each other: each shard builds its
// lift table from its own partition, so CI bounds differ between them.
func TestRiskTopBoundedMatchesFullRanking(t *testing.T) {
	for _, shards := range []int{0, 4} {
		s, err := New(Config{
			Dataset: fleetDS(),
			Window:  trace.Day,
			Now:     func() time.Time { return day(100) },
			Shards:  shards,
			Logf:    func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		feedFleet(t, ts.URL)
		// Extra events on a few systems so the systems rank unevenly.
		resp, body := postEvents(t, ts.URL, `{"events":[
			{"system":2,"node":0,"category":"HW","hw":"CPU"},
			{"system":2,"node":2,"category":"HW","hw":"CPU"},
			{"system":5,"node":3,"category":"NET"}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST events = %d; body: %s", resp.StatusCode, body)
		}
		checkBoundedRiskTop(t, ts.URL, fmt.Sprintf("shards=%d", shards))
	}
}

func checkBoundedRiskTop(t *testing.T, base, label string) {
	t.Helper()
	at := "at=" + day(100).UTC().Format(time.RFC3339)
	type rows struct {
		Scores []json.RawMessage `json:"scores"`
	}
	get := func(q string) []json.RawMessage {
		t.Helper()
		resp, body := getRaw(t, base+"/v1/risk/top?"+at+"&"+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s = %d; body: %s", label, q, resp.StatusCode, body)
		}
		var r rows
		mustDecode(t, body, &r)
		return r.Scores
	}
	same := func(q string, got, want []json.RawMessage) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d rows, want %d", label, q, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s %s row %d:\n%s\nwant\n%s", label, q, i, got[i], want[i])
			}
		}
	}
	systemOf := func(raw json.RawMessage) int {
		var r struct {
			System int `json:"system"`
		}
		mustDecode(t, raw, &r)
		return r.System
	}

	full := get("k=24") // every node of the six 4-node systems
	if len(full) != 24 {
		t.Fatalf("%s: full ranking has %d rows, want 24", label, len(full))
	}
	for _, k := range []int{1, 3, 7, 23, 1000} {
		q := fmt.Sprintf("k=%d", k)
		same(q, get(q), full[:min(k, len(full))])
	}
	narrower := false // some system's top k is not all in the fleet top k
	for id := 1; id <= 6; id++ {
		var own []json.RawMessage
		for _, raw := range full {
			if systemOf(raw) == id {
				own = append(own, raw)
			}
		}
		for k := 1; k <= len(own); k++ {
			q := fmt.Sprintf("system=%d&k=%d", id, k)
			same(q, get(q), own[:k])
			inFleetTop := 0
			for _, raw := range full[:k] {
				if systemOf(raw) == id {
					inFleetTop++
				}
			}
			narrower = narrower || inFleetTop < k
		}
	}
	if !narrower {
		t.Fatalf("%s: every system's top k was also the fleet top k; the check proves nothing", label)
	}
}

// TestMaintainDecaysOnFeedClock: the maintenance tick decays the risk
// engine to the newest event it has seen, not to the wall clock, so a
// server fed historical events keeps its ?at=-pinned answers and state.
func TestMaintainDecaysOnFeedClock(t *testing.T) {
	ts, s, _ := newTestServerFull(t, nil)
	resp, body := postEvents(t, ts.URL, `{"events":[
		{"system":1,"node":0,"category":"HW","hw":"CPU","time":"2000-04-09T20:00:00Z"},
		{"system":1,"node":2,"category":"NET","time":"2000-04-09T22:00:00Z"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST events = %d; body: %s", resp.StatusCode, body)
	}
	pinned := ts.URL + "/v1/risk/top?k=4&at=2000-04-10T00:00:00Z"
	_, before := getRaw(t, pinned)
	_, snapBefore := getRaw(t, ts.URL+"/v1/snapshot")
	if !bytes.Contains(before, []byte(`"contributions"`)) {
		t.Fatalf("pinned top has no elevated node before the tick:\n%s", before)
	}

	s.fabric.maintain(time.Now())

	if _, after := getRaw(t, pinned); !bytes.Equal(after, before) {
		t.Fatalf("pinned top changed across a wall-clock tick:\n%s\nvs\n%s", before, after)
	}
	if _, snapAfter := getRaw(t, ts.URL+"/v1/snapshot"); !bytes.Equal(snapAfter, snapBefore) {
		t.Fatalf("engine state changed across a wall-clock tick:\n%s\nvs\n%s", snapBefore, snapAfter)
	}
}
