package server

import (
	"strconv"
	"strings"
	"testing"
)

// totals parses every _total sample of a /metrics body, keyed by series
// (name plus labels).
func totals(t *testing.T, body []byte) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for _, line := range strings.Split(string(body), "\n") {
		series, val, ok := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		if !ok || strings.HasPrefix(line, "#") || !strings.HasSuffix(name, "_total") {
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("counter sample %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// TestFailoverCountersMonotone walks feed → kill → promote → feed on a
// sharded server with standbys and checks at every step that no _total
// sample goes backwards or disappears: Prometheus reads a drop as a counter
// reset. The killed shard's journal is detached and its promoted store and
// engine are new, so the shard must carry what the retired ones counted.
func TestFailoverCountersMonotone(t *testing.T) {
	srv, ts := newShardedServer(t, t.TempDir())
	feedFleet(t, ts.URL)
	feedFleet(t, ts.URL)
	srv.CatchupStandbys()
	owner, ok := srv.fabric.ownerOf(1)
	if !ok {
		t.Fatal("system 1 has no owner")
	}
	prev := totals(t, fetchMetrics(t, ts))
	if prev["hpcserve_wal_records_total"] == 0 || prev["hpcserve_store_appends_total"] == 0 {
		t.Fatalf("fed server counts nothing: %v", prev)
	}
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"kill", func() error { return srv.KillShard(owner) }},
		{"promote", func() error { return srv.PromoteShard(owner) }},
		{"feed", func() error { feedFleet(t, ts.URL); return nil }},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		cur := totals(t, fetchMetrics(t, ts))
		for series, was := range prev {
			if now, ok := cur[series]; !ok || now < was {
				t.Errorf("after %s: %s = %d (present %v), was %d", step.name, series, now, ok, was)
			}
		}
		prev = cur
	}
}
