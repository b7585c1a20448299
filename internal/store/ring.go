// Fault-domain sharding primitives: a consistent-hash ring that assigns
// system IDs to shards, a dataset partitioner that cuts one dataset into
// per-shard datasets along ring ownership, and a Supervisor that tracks
// per-shard health through heartbeats. The ring is deterministic — two
// processes built with the same shard count agree on every assignment — so
// a recovered fleet and an uninterrupted twin shard identically, which is
// what makes their answers byte-comparable.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"

	"github.com/hpcfail/hpcfail/internal/trace"
)

// DefaultRingReplicas is the virtual-node count per shard; enough that
// adding a shard moves roughly 1/n of the systems.
const DefaultRingReplicas = 64

// Ring maps system IDs to shards by consistent hashing with virtual nodes.
// Immutable after NewRing; safe for concurrent use.
type Ring struct {
	shards int
	points []ringPoint // ascending by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring of n shards with the given virtual-node count per
// shard (<=0 means DefaultRingReplicas).
func NewRing(n, replicas int) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("store: ring needs at least one shard, got %d", n)
	}
	if replicas <= 0 {
		replicas = DefaultRingReplicas
	}
	r := &Ring{shards: n, points: make([]ringPoint, 0, n*replicas)}
	for s := 0; s < n; s++ {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(uint64(s)<<32 | uint64(v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard
	})
	return r, nil
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard owning a system ID: the successor virtual node of
// the ID's hash, wrapping at the top of the ring.
func (r *Ring) Owner(systemID int) int {
	h := hash64(uint64(systemID))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// hash64 is FNV-1a over the value's 8 little-endian bytes — stable across
// processes and Go versions, which the twin-comparison tests rely on.
func hash64(v uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h := fnv.New64a()
	h.Write(b[:])
	return h.Sum64()
}

// Assign groups system IDs by ring owner, then rebalances deterministically
// so that no shard is left empty while another holds several systems (pure
// consistent hashing can starve a shard when systems are few; an empty
// shard could not build a risk engine). The result is a pure function of
// (ring, systemIDs) — recovered fleets and their uninterrupted twins agree.
func (r *Ring) Assign(systemIDs []int) [][]int {
	ids := append([]int(nil), systemIDs...)
	sort.Ints(ids)
	out := make([][]int, r.shards)
	for _, id := range ids {
		o := r.Owner(id)
		out[o] = append(out[o], id)
	}
	for {
		empty := -1
		for i, g := range out {
			if len(g) == 0 {
				empty = i
				break
			}
		}
		if empty < 0 {
			break
		}
		donor := -1
		for i, g := range out {
			if len(g) > 1 && (donor < 0 || len(g) > len(out[donor])) {
				donor = i
			}
		}
		if donor < 0 {
			break // fewer systems than shards; some shards stay empty
		}
		g := out[donor]
		out[donor] = g[:len(g)-1]
		out[empty] = append(out[empty], g[len(g)-1])
		sort.Ints(out[empty])
	}
	return out
}

// PartitionDataset cuts ds into one dataset per shard along Assign's
// ownership, returning the per-shard datasets and the system IDs each
// holds. Each partition of a multi-shard ring is built with fresh record
// slices (trace.Dataset.FilterSystems), so per-shard stores never share
// mutable backing arrays; the external neutron series and layout pointers
// are shared read-only. A one-shard ring's partition is ds itself: nothing
// else shares its arrays, so copying would only double the boot heap.
func PartitionDataset(ds *trace.Dataset, ring *Ring) ([]*trace.Dataset, [][]int) {
	ids := ring.Assign(ds.SystemIDs())
	if ring.Shards() == 1 {
		return []*trace.Dataset{ds}, ids
	}
	parts := make([]*trace.Dataset, ring.Shards())
	for i := range parts {
		parts[i] = ds.FilterSystems(ids[i]...)
	}
	return parts, ids
}

// ShardState is one shard's supervision state.
type ShardState int32

const (
	// ShardReady means the shard is serving.
	ShardReady ShardState = iota
	// ShardWarming means the shard (or its standby) is still replaying.
	ShardWarming
	// ShardDown means the shard is dead: heartbeats expired, a call
	// panicked, or it was killed.
	ShardDown
	// ShardPromoting means a standby is being promoted to leader.
	ShardPromoting
)

// String names the state as exposed by /readyz.
func (s ShardState) String() string {
	switch s {
	case ShardReady:
		return "ready"
	case ShardWarming:
		return "warming"
	case ShardDown:
		return "down"
	case ShardPromoting:
		return "promoting"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Supervisor tracks per-shard liveness: each shard's state plus its last
// heartbeat, with stale heartbeats expiring Ready shards to Down. It holds
// no shard resources itself — the serving fabric owns those and consults
// the supervisor for routing and failover decisions. Safe for concurrent
// use.
type Supervisor struct {
	deadline time.Duration
	now      func() time.Time
	shards   []shardHealth
}

type shardHealth struct {
	state    atomic.Int32
	lastBeat atomic.Int64 // UnixNano of the last heartbeat
	reason   atomic.Pointer[string]
}

// DefaultHeartbeatDeadline expires a Ready shard that has not beaten.
const DefaultHeartbeatDeadline = 2 * time.Second

// NewSupervisor builds a supervisor for n shards, all starting Ready with a
// fresh heartbeat. deadline <= 0 means DefaultHeartbeatDeadline.
func NewSupervisor(n int, deadline time.Duration, now func() time.Time) (*Supervisor, error) {
	if n <= 0 {
		return nil, fmt.Errorf("store: supervisor needs at least one shard, got %d", n)
	}
	if deadline <= 0 {
		deadline = DefaultHeartbeatDeadline
	}
	if now == nil {
		now = time.Now
	}
	s := &Supervisor{deadline: deadline, now: now, shards: make([]shardHealth, n)}
	t := now().UnixNano()
	for i := range s.shards {
		s.shards[i].lastBeat.Store(t)
	}
	return s, nil
}

// N returns the supervised shard count.
func (s *Supervisor) N() int { return len(s.shards) }

// Beat records a successful heartbeat for shard i.
func (s *Supervisor) Beat(i int) {
	s.shards[i].lastBeat.Store(s.now().UnixNano())
}

// State returns shard i's current state.
func (s *Supervisor) State(i int) ShardState {
	return ShardState(s.shards[i].state.Load())
}

// SetState forces shard i into a state, recording why (shown by /readyz and
// failure logs). Entering ShardReady refreshes the heartbeat so the shard
// is not immediately re-expired.
func (s *Supervisor) SetState(i int, st ShardState, reason string) {
	s.shards[i].reason.Store(&reason)
	s.shards[i].state.Store(int32(st))
	if st == ShardReady {
		s.Beat(i)
	}
}

// Transition moves shard i from one state to another atomically, reporting
// whether it won the race (failover uses it so only one promoter runs).
func (s *Supervisor) Transition(i int, from, to ShardState, reason string) bool {
	if !s.shards[i].state.CompareAndSwap(int32(from), int32(to)) {
		return false
	}
	s.shards[i].reason.Store(&reason)
	if to == ShardReady {
		s.Beat(i)
	}
	return true
}

// Reason returns why shard i entered its current state ("" when never set).
func (s *Supervisor) Reason(i int) string {
	if p := s.shards[i].reason.Load(); p != nil {
		return *p
	}
	return ""
}

// Expire transitions every Ready shard whose heartbeat is older than the
// deadline to Down, returning the indices that just went down. The fabric
// calls this each supervision tick, after pinging the shards.
func (s *Supervisor) Expire() []int {
	cutoff := s.now().Add(-s.deadline).UnixNano()
	var downed []int
	for i := range s.shards {
		if ShardState(s.shards[i].state.Load()) != ShardReady {
			continue
		}
		if s.shards[i].lastBeat.Load() < cutoff {
			if s.Transition(i, ShardReady, ShardDown, "heartbeat deadline exceeded") {
				downed = append(downed, i)
			}
		}
	}
	return downed
}
