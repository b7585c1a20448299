// Fault-domain sharding: the serving layer splits the fleet into N
// supervised shards by consistent hashing on system ID (internal/store's
// Ring), each shard owning its own dataset store, risk engine, WAL segment
// tree and circuit breaker. A fabric routes per-system requests to the
// owning shard and scatter-gathers cross-system requests with per-shard
// deadlines, answering with explicit partial results (X-Partial: true plus
// a per-shard version vector) when a shard is down or slow instead of
// failing the whole query. Each shard's WAL is tailed by a warm standby
// (internal/risk.Standby) that replays continuously; a supervisor detects
// shard death through panic isolation and heartbeat deadlines and promotes
// the standby in O(tail).
package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/correlate"
	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

var (
	// errShardDown marks a request routed to a shard that is not serving.
	errShardDown = errors.New("shard unavailable")
	// errShardSlow marks a per-shard scatter deadline expiring. Slowness
	// alone does not mark the shard down — that is the heartbeat's call.
	errShardSlow = errors.New("shard deadline exceeded")
)

// DefaultShardDeadline bounds one shard's slice of a scatter-gather query.
const DefaultShardDeadline = 2 * time.Second

// DefaultHeartbeatInterval spaces supervision ticks (heartbeats, standby
// catchup, failover checks).
const DefaultHeartbeatInterval = 500 * time.Millisecond

// shard is one fault domain: the mutable component set is swapped as a unit
// under mu when a standby is promoted; everything else is fixed at build.
type shard struct {
	idx int
	// systems is the shard's boot catalog. Membership never changes (only
	// measurement periods extend), so routing and scope checks read it
	// lock-free.
	systems []trace.SystemInfo
	// breaker gates this shard's condprob compute — failures on one shard
	// must not degrade the others.
	breaker *breaker
	// gen counts promotions; condprob cache keys embed it so results
	// computed against a dead leader can never be served for its successor.
	gen       atomic.Uint64
	failovers atomic.Uint64
	// stall injects latency (ns) into every call — the chaos hook that makes
	// a shard slow without making it dead.
	stall atomic.Int64
	// diskFull is the sticky read-only latch: set when a WAL append (or
	// sync/snapshot) fails with ENOSPC, cleared only by a successful space
	// probe. While set, the shard rejects writes but keeps serving reads —
	// the durable state it already acknowledged stays queryable.
	diskFull atomic.Bool
	// lastProbe rate-limits space probes (unix nanos of the last attempt).
	lastProbe atomic.Int64

	mu      sync.RWMutex
	st      *store.Store
	engine  *risk.Engine
	journal *risk.Journal
	standby *risk.Standby
	// miner maintains the shard's correlation-rule counts incrementally
	// against st; it is rebuilt alongside the store on promotion.
	miner *correlate.Miner
}

// view reads the shard's current serving components as one consistent set.
func (sh *shard) view() (*store.Store, *risk.Engine, *risk.Journal) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.st, sh.engine, sh.journal
}

func (sh *shard) getStandby() *risk.Standby {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.standby
}

func (sh *shard) getMiner() *correlate.Miner {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.miner
}

// fabric is the shard router: ownership map, supervisor, and the scatter
// and failover machinery. A single-shard fabric is the legacy server with
// one fault domain.
type fabric struct {
	sup    *store.Supervisor
	ring   *store.Ring
	shards []*shard
	// fleet is the union catalog, ascending by system ID — the routing and
	// scope-validation view of the whole dataset.
	fleet  []trace.SystemInfo
	owner  map[int]int // system ID -> shard index
	window time.Duration
	// deadline bounds each shard's slice of a scatter-gather query.
	deadline time.Duration
	hbEvery  time.Duration
	// walTmpl is the per-shard WAL option template; Dir is the root under
	// which each shard keeps its own segment tree (empty = no durability).
	walTmpl    wal.Options
	snapPolicy checkpoint.Policy
	// corrWindows are the correlation windows every shard's miner maintains
	// (nil = correlate.DefaultWindows); promotion rebuilds miners with them.
	corrWindows []time.Duration
	// probeEvery spaces disk-space probes while a shard is read-only
	// (0 = probe on every write attempt; tests use that for determinism).
	probeEvery time.Duration
	// roEntries counts read-only-mode entries; walAppendErrs counts WAL
	// append/sync/snapshot failures. Both feed /metrics.
	roEntries     atomic.Uint64
	walAppendErrs atomic.Uint64
	now           func() time.Time
	logf          func(format string, args ...any)
}

func (f *fabric) walOptsOf(i int) wal.Options {
	opts := f.walTmpl
	if opts.Dir != "" {
		opts.Dir = shardWALDir(f.walTmpl.Dir, i)
	}
	return opts
}

func (f *fabric) snapPolicyOf(int) checkpoint.Policy { return f.snapPolicy }

func (f *fabric) n() int { return len(f.shards) }

// shardWALDir is shard i's WAL directory under the configured root. The
// layout is stable so a restart (or a standby in another process) finds the
// same segment trees.
func shardWALDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// ownerOf maps a system ID to its shard.
func (f *fabric) ownerOf(systemID int) (int, bool) {
	i, ok := f.owner[systemID]
	return i, ok
}

// involvedShards lists the shards owning at least one system in the query
// scope (0 = all systems, 1/2 = the architecture groups), ascending. Group
// membership is fixed at boot, so the fleet catalog answers without
// touching any shard. A single-shard fabric always answers from its one
// shard, even for a group with no systems.
func (f *fabric) involvedShards(group int) []int {
	if f.n() == 1 {
		return []int{0}
	}
	mark := make([]bool, f.n())
	for _, sys := range f.fleet {
		switch group {
		case 1:
			if sys.Group != trace.Group1 {
				continue
			}
		case 2:
			if sys.Group != trace.Group2 {
				continue
			}
		}
		if i, ok := f.owner[sys.ID]; ok {
			mark[i] = true
		}
	}
	var idxs []int
	for i, m := range mark {
		if m {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// systemShards lists the shards a query scoped by an optional system
// involves: the owner alone, or (0 = all systems) every shard.
func (f *fabric) systemShards(system int) []int {
	if system != 0 {
		return []int{f.owner[system]}
	}
	return f.allShards()
}

// fleetSystem resolves a system ID against the fleet catalog.
func (f *fabric) fleetSystem(id int) (trace.SystemInfo, bool) {
	for _, s := range f.fleet {
		if s.ID == id {
			return s, true
		}
	}
	return trace.SystemInfo{}, false
}

// call runs fn against shard i's current components with panic isolation: a
// panic inside fn kills the shard (supervisor marks it Down, the journal is
// detached and closed) instead of crashing the process, and the caller gets
// errShardDown. A context deadline returns errShardSlow without killing the
// shard — the heartbeat decides whether slow means dead. The injected stall
// (chaos) applies before fn.
func (f *fabric) call(ctx context.Context, i int, fn func(st *store.Store, eng *risk.Engine, j *risk.Journal) error) error {
	if st := f.sup.State(i); st != store.ShardReady {
		return fmt.Errorf("%w: shard %d %s", errShardDown, i, st)
	}
	sh := f.shards[i]
	st, eng, j := sh.view()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				f.killShard(i, fmt.Sprintf("panic: %v", r))
				done <- fmt.Errorf("%w: shard %d panicked", errShardDown, i)
			}
		}()
		if d := time.Duration(sh.stall.Load()); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				done <- fmt.Errorf("%w: shard %d", errShardSlow, i)
				return
			}
		}
		done <- fn(st, eng, j)
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("%w: shard %d", errShardSlow, i)
	}
}

// detachJournal takes the shard's journal away and closes it. Observe holds
// the journal mutex, so once Close returns no further append can reach the
// dead leader's WAL — the standby's final catchup reads a quiesced log and
// promotion cannot split-brain.
func (f *fabric) detachJournal(i int) {
	sh := f.shards[i]
	sh.mu.Lock()
	j := sh.journal
	sh.journal = nil
	sh.mu.Unlock()
	if j != nil {
		if err := j.Close(); err != nil {
			f.logf("hpcserve: shard %d: closing dead leader journal: %v", i, err)
		}
	}
}

// markDiskFull latches shard i into read-only mode. It reports whether this
// call made the transition (the caller counts entries exactly once).
func (f *fabric) markDiskFull(i int) bool {
	if f.shards[i].diskFull.CompareAndSwap(false, true) {
		f.roEntries.Add(1)
		f.logf("hpcserve: shard %d: WAL disk full, entering read-only mode (reads keep serving)", i)
		return true
	}
	return false
}

// tryClearDiskFull probes shard i's filesystem for recovered space and, on
// success, leaves read-only mode. Probes are rate-limited by probeEvery so a
// write storm against a full disk does not turn into a probe storm. It
// reports whether the shard is writable now.
func (f *fabric) tryClearDiskFull(i int, now time.Time) bool {
	sh := f.shards[i]
	if !sh.diskFull.Load() {
		return true
	}
	if f.probeEvery > 0 {
		last := sh.lastProbe.Load()
		if now.UnixNano()-last < int64(f.probeEvery) {
			return false
		}
		if !sh.lastProbe.CompareAndSwap(last, now.UnixNano()) {
			return false // another request owns this probe slot
		}
	}
	_, _, j := sh.view()
	if j == nil {
		return false
	}
	if err := j.ProbeSpace(); err != nil {
		return false
	}
	sh.diskFull.Store(false)
	f.logf("hpcserve: shard %d: disk space recovered, leaving read-only mode", i)
	return true
}

// ensureWritable probes every read-only shard once (rate-limited) and
// reports whether the whole fabric accepts writes. Ingest gates on this so a
// disk-full episode turns into fast 503s instead of per-event append faults.
func (f *fabric) ensureWritable(now time.Time) bool {
	ok := true
	for i, sh := range f.shards {
		if sh.diskFull.Load() && !f.tryClearDiskFull(i, now) {
			ok = false
		}
	}
	return ok
}

// readOnly reports whether any shard is in read-only mode.
func (f *fabric) readOnly() bool {
	for _, sh := range f.shards {
		if sh.diskFull.Load() {
			return true
		}
	}
	return false
}

// killShard marks shard i Down and fences its journal.
func (f *fabric) killShard(i int, reason string) {
	f.sup.SetState(i, store.ShardDown, reason)
	f.logf("hpcserve: shard %d down: %s", i, reason)
	f.detachJournal(i)
}

// promote fails shard i over to its warm standby. The Down→Promoting CAS
// guarantees a single promoter; on success the component set is swapped as
// one unit and the generation advances so stale cache entries die with the
// old leader.
func (f *fabric) promote(i int) error {
	sh := f.shards[i]
	if !f.sup.Transition(i, store.ShardDown, store.ShardPromoting, "promoting standby") {
		return fmt.Errorf("server: shard %d is %s, not down", i, f.sup.State(i))
	}
	sb := sh.getStandby()
	if sb == nil {
		f.sup.Transition(i, store.ShardPromoting, store.ShardDown, "no standby to promote")
		return fmt.Errorf("server: shard %d has no standby", i)
	}
	// The dead leader's journal must be fenced before the final catchup, or
	// a straggling append could land after the standby stops reading.
	f.detachJournal(i)
	j, err := sb.Promote(f.snapPolicyOf(i), f.walOptsOf(i), f.now)
	if err != nil {
		f.sup.Transition(i, store.ShardPromoting, store.ShardDown, "promotion failed: "+err.Error())
		return fmt.Errorf("server: shard %d promotion: %w", i, err)
	}
	sh.mu.Lock()
	if st := j.Store(); st != nil {
		sh.st = st
	}
	sh.engine = j.Engine()
	sh.journal = j
	sh.standby = nil
	// The promoted store is a different log; a fresh miner re-mines it on
	// the next correlations query instead of trusting stale positions.
	sh.miner = correlate.NewMiner(sh.st, f.corrWindows...)
	sh.mu.Unlock()
	sh.stall.Store(0)
	sh.gen.Add(1)
	sh.failovers.Add(1)
	f.sup.Transition(i, store.ShardPromoting, store.ShardReady, "standby promoted")
	f.logf("hpcserve: shard %d promoted standby (%d wal records)", i, j.WALCount())
	return nil
}

// tick is one supervision round: heartbeat every Ready shard, expire the
// silent ones, drain every standby's replication tail, and promote warm
// standbys of Down shards. It is the body of the supervise loop and is also
// driven directly by deterministic tests.
func (f *fabric) tick(ctx context.Context) {
	for i := range f.shards {
		if f.sup.State(i) != store.ShardReady {
			continue
		}
		hctx, cancel := context.WithTimeout(ctx, f.deadline)
		err := f.call(hctx, i, func(st *store.Store, eng *risk.Engine, _ *risk.Journal) error {
			// The ping exercises both component reads a query would do.
			_ = st.Snapshot().Version()
			_ = eng.LastEvent()
			return nil
		})
		cancel()
		if err == nil {
			f.sup.Beat(i)
		}
	}
	for _, i := range f.sup.Expire() {
		f.logf("hpcserve: shard %d down: heartbeat deadline exceeded", i)
		f.detachJournal(i)
	}
	f.catchupStandbys()
	for i, sh := range f.shards {
		if f.sup.State(i) != store.ShardDown {
			continue
		}
		sb := sh.getStandby()
		// A resync-needed standby is stale by a compacted prefix; promoting
		// it would silently lose acknowledged events, so the shard stays down
		// until an operator rebuilds the standby.
		if sb == nil || !sb.Warm() || sb.ResyncNeeded() {
			continue
		}
		if err := f.promote(i); err != nil {
			f.logf("hpcserve: shard %d failover: %v", i, err)
		}
	}
}

// catchupStandbys drains every standby's replication tail once. A
// wal.ErrGap is terminal, not transient: the leader compacted past the
// standby's position, so retrying can never succeed and promoting would
// lose acknowledged events. The standby surfaces it through ResyncNeeded
// (readiness and /readyz report "resync-needed") instead of stalling
// silently; the remedy is an operator rebuild (see DESIGN.md §5f).
func (f *fabric) catchupStandbys() {
	for i, sh := range f.shards {
		sb := sh.getStandby()
		if sb == nil || sb.ResyncNeeded() {
			continue
		}
		if _, err := sb.Catchup(); err != nil {
			if errors.Is(err, wal.ErrGap) {
				f.logf("hpcserve: shard %d standby needs resync (leader compacted past its position): %v", i, err)
			} else {
				f.logf("hpcserve: shard %d standby catchup: %v", i, err)
			}
		}
	}
}

// needsSupervision reports whether the background supervise loop should
// run: single-shard fabrics without a standby keep the legacy behavior of
// no supervision goroutine.
func (f *fabric) needsSupervision() bool {
	if f.n() > 1 {
		return true
	}
	return f.shards[0].getStandby() != nil
}

// supervise runs ticks until ctx is done.
func (f *fabric) supervise(ctx context.Context) {
	t := time.NewTicker(f.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.tick(ctx)
		}
	}
}

// maintain runs the periodic per-shard upkeep the serve loop schedules:
// engine decay, WAL sync, and the snapshot policy.
func (f *fabric) maintain(now time.Time) {
	for i := range f.shards {
		_, eng, j := f.shards[i].view()
		// Decay on the feed's clock: a server fed historical or replayed
		// events would otherwise drop them all and change ?at=-pinned
		// answers. Observe's pruning and the retention bound cap memory.
		at := now
		if last := eng.LastEvent(); last.Before(at) {
			at = last
		}
		eng.Decay(at)
		if j == nil {
			continue
		}
		// A read-only shard skips sync and snapshots (both allocate) and
		// probes for recovered space instead.
		if f.shards[i].diskFull.Load() && !f.tryClearDiskFull(i, now) {
			continue
		}
		if err := j.Sync(); err != nil {
			f.walAppendErrs.Add(1)
			if iofault.IsDiskFull(err) {
				f.markDiskFull(i)
			}
			f.logf("hpcserve: shard %d wal sync: %v", i, err)
		}
		if wrote, err := j.MaybeSnapshot(now); err != nil {
			if iofault.IsDiskFull(err) {
				f.markDiskFull(i)
			}
			f.logf("hpcserve: shard %d snapshot: %v", i, err)
		} else if wrote {
			f.logf("hpcserve: shard %d snapshot written (%d wal records applied)", i, j.WALCount())
		}
	}
}

// syncAll flushes every shard's WAL — the final act of a graceful shutdown.
func (f *fabric) syncAll() {
	for i := range f.shards {
		_, _, j := f.shards[i].view()
		if j == nil {
			continue
		}
		if err := j.Sync(); err != nil {
			f.logf("hpcserve: shard %d final wal sync: %v", i, err)
		}
	}
}

// maxVersion returns the highest dataset-store version across shards, and
// totalEvents the fleet-wide event count — the aggregate the single-store
// server used to read off one snapshot.
func (f *fabric) maxVersion() uint64 {
	var v uint64
	for _, sh := range f.shards {
		st, _, _ := sh.view()
		v = max(v, st.Snapshot().Version())
	}
	return v
}

func (f *fabric) totalEvents() int {
	n := 0
	for _, sh := range f.shards {
		st, _, _ := sh.view()
		n += st.Snapshot().Events()
	}
	return n
}

// allShards lists every shard index.
func (f *fabric) allShards() []int {
	idxs := make([]int, f.n())
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// shardStatus is one shard's row in the /readyz body.
type shardStatus struct {
	Shard   int    `json:"shard"`
	State   string `json:"state"`
	Reason  string `json:"reason,omitempty"`
	Standby string `json:"standby,omitempty"`
	Systems int    `json:"systems"`
	// ReadOnly marks a shard whose WAL disk is full: reads serve, writes 503.
	ReadOnly bool `json:"read_only,omitempty"`
}

// status reports readiness: every shard Ready and every standby warm. A
// recovering shard (WAL replay in OpenJournal) never reaches here un-ready —
// construction is synchronous — but a standby still draining its leader's
// log does, and so does any shard that died or is mid-promotion.
func (f *fabric) status() (bool, []shardStatus) {
	ready := true
	rows := make([]shardStatus, f.n())
	for i, sh := range f.shards {
		st := f.sup.State(i)
		row := shardStatus{Shard: i, State: st.String(), Reason: f.sup.Reason(i), Systems: len(sh.systems), ReadOnly: sh.diskFull.Load()}
		if st != store.ShardReady {
			ready = false
		}
		if sb := sh.getStandby(); sb != nil {
			switch {
			case sb.ResyncNeeded():
				// Replication hit a compaction gap: the standby can never
				// catch up again and must be rebuilt. Distinct from
				// "warming" so operators see a dead-end, not a slow drain.
				row.Standby = "resync-needed"
				ready = false
			case sb.Warm():
				row.Standby = "warm"
			default:
				row.Standby = "warming"
				ready = false
			}
		}
		rows[i] = row
	}
	return ready, rows
}

// ShardCount returns the number of fault domains the server is split into
// (1 for the legacy single-shard server).
func (s *Server) ShardCount() int { return s.fabric.n() }

// KillShard marks shard i dead and fences its journal, exactly as a panic
// or heartbeat expiry would — the chaos entry point for failover tests.
// Killing an already-down shard is a no-op.
func (s *Server) KillShard(i int) error {
	if i < 0 || i >= s.fabric.n() {
		return fmt.Errorf("server: no shard %d", i)
	}
	if s.fabric.sup.State(i) == store.ShardDown {
		return nil
	}
	s.fabric.killShard(i, "killed by operator/chaos")
	return nil
}

// StallShard injects d of latency into every call shard i serves (0 clears
// it). Long enough stalls fail scatter deadlines and then heartbeats — the
// slow-shard half of the failure model.
func (s *Server) StallShard(i int, d time.Duration) error {
	if i < 0 || i >= s.fabric.n() {
		return fmt.Errorf("server: no shard %d", i)
	}
	if d < 0 {
		d = 0
	}
	s.fabric.shards[i].stall.Store(int64(d))
	return nil
}

// PromoteShard manually fails shard i over to its warm standby (the
// supervisor loop does this automatically; tests drive it deterministically).
func (s *Server) PromoteShard(i int) error {
	if i < 0 || i >= s.fabric.n() {
		return fmt.Errorf("server: no shard %d", i)
	}
	return s.fabric.promote(i)
}

// CatchupStandbys drains every standby's replication tail once — the
// deterministic stand-in for the supervise loop's continuous catchup.
func (s *Server) CatchupStandbys() { s.fabric.catchupStandbys() }

// SuperviseTick runs one supervision round (heartbeats, expiry, catchup,
// auto-failover) synchronously.
func (s *Server) SuperviseTick(ctx context.Context) { s.fabric.tick(ctx) }

// fleetCopy deep-copies a system catalog, sorted ascending by ID.
func fleetCopy(systems []trace.SystemInfo) []trace.SystemInfo {
	out := append([]trace.SystemInfo(nil), systems...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// newSingleFabric wraps already-built single-store components as a
// one-shard fabric — the legacy configuration, byte-for-byte compatible
// with the pre-sharding server.
func newSingleFabric(st *store.Store, engine *risk.Engine, journal *risk.Journal, br *breaker, cfg Config, now func() time.Time, logf func(string, ...any)) (*fabric, error) {
	ring, err := store.NewRing(1, 1)
	if err != nil {
		return nil, err
	}
	sup, err := store.NewSupervisor(1, cfg.HeartbeatDeadline, now)
	if err != nil {
		return nil, err
	}
	fleet := fleetCopy(st.Snapshot().Dataset().Systems)
	owner := make(map[int]int, len(fleet))
	for _, s := range fleet {
		owner[s.ID] = 0
	}
	sh := &shard{idx: 0, systems: fleet, breaker: br, st: st, engine: engine, journal: journal}
	sh.miner = correlate.NewMiner(st, cfg.CorrelationWindows...)
	return &fabric{
		sup:         sup,
		ring:        ring,
		shards:      []*shard{sh},
		fleet:       fleet,
		owner:       owner,
		window:      engine.Window(),
		deadline:    shardDeadlineOr(cfg.ShardDeadline),
		hbEvery:     heartbeatIntervalOr(cfg.HeartbeatInterval),
		corrWindows: cfg.CorrelationWindows,
		now:         now,
		logf:        logf,
	}, nil
}

func shardDeadlineOr(d time.Duration) time.Duration {
	if d <= 0 {
		return DefaultShardDeadline
	}
	return d
}

func heartbeatIntervalOr(d time.Duration) time.Duration {
	if d <= 0 {
		return DefaultHeartbeatInterval
	}
	return d
}

// newShardedFabric builds n supervised shards over cfg.Dataset: partition
// by consistent hashing, then per shard a private store, a risk engine over
// that partition's analyzer, and — when cfg.ShardWAL.Dir is set — a durable
// journal under shard-NNN/ plus (with cfg.Standby) a warm standby tailing
// that same directory. Shard counts above the system count are clamped: an
// empty shard could neither score nor ingest anything.
func newShardedFabric(cfg Config, n int, w time.Duration, now func() time.Time, logf func(string, ...any)) (*fabric, error) {
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("server: sharded mode needs a dataset")
	}
	if cfg.Store != nil || cfg.Engine != nil || cfg.Journal != nil {
		return nil, fmt.Errorf("server: sharded mode builds its own stores, engines and journals; Store/Engine/Journal must be nil")
	}
	if len(cfg.Dataset.Systems) == 0 {
		return nil, fmt.Errorf("server: dataset has no systems")
	}
	if got := len(cfg.Dataset.Systems); n > got {
		logf("hpcserve: clamping %d shards to %d (one per system)", n, got)
		n = got
	}
	ring, err := store.NewRing(n, 0)
	if err != nil {
		return nil, err
	}
	sup, err := store.NewSupervisor(n, cfg.HeartbeatDeadline, now)
	if err != nil {
		return nil, err
	}
	parts, ids := store.PartitionDataset(cfg.Dataset, ring)
	owner := make(map[int]int, len(cfg.Dataset.Systems))
	for i, group := range ids {
		for _, id := range group {
			owner[id] = i
		}
	}
	f := &fabric{
		sup:         sup,
		ring:        ring,
		fleet:       fleetCopy(cfg.Dataset.Systems),
		owner:       owner,
		window:      w,
		deadline:    shardDeadlineOr(cfg.ShardDeadline),
		hbEvery:     heartbeatIntervalOr(cfg.HeartbeatInterval),
		walTmpl:     cfg.ShardWAL,
		snapPolicy:  cfg.SnapshotPolicy,
		corrWindows: cfg.CorrelationWindows,
		now:         now,
		logf:        logf,
	}
	for i := 0; i < n; i++ {
		st, err := store.New(parts[i])
		if err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		engine, err := risk.FromAnalyzer(st.Snapshot().Analyzer(), w)
		if err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		sh := &shard{
			idx:     i,
			systems: fleetCopy(st.Snapshot().Dataset().Systems),
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, now),
			st:      st,
			engine:  engine,
		}
		sh.miner = correlate.NewMiner(st, cfg.CorrelationWindows...)
		if cfg.ShardWAL.Dir != "" {
			jc := risk.JournalConfig{Engine: engine, WAL: f.walOptsOf(i), SnapshotPolicy: cfg.SnapshotPolicy, Now: now}
			if !cfg.FrozenDataset {
				jc.Store = st
			}
			journal, stats, err := risk.OpenJournal(jc)
			if err != nil {
				return nil, fmt.Errorf("server: shard %d: %w", i, err)
			}
			sh.journal = journal
			if stats.SnapshotLoaded || stats.Replayed > 0 {
				logf("hpcserve: shard %d recovered (snapshot %d events, replayed %d, skipped %d)",
					i, stats.SnapshotEvents, stats.Replayed, stats.Skipped)
			}
			if cfg.Standby {
				// The standby gets its own dataset copy and engine over the
				// same boot partition; it replays the leader's WAL through the
				// follower, so promotion reproduces the leader's state.
				sds := cfg.Dataset.FilterSystems(ids[i]...)
				sc := risk.StandbyConfig{Dir: f.walOptsOf(i).Dir, FS: cfg.ShardWAL.FS}
				if cfg.FrozenDataset {
					sengine, err := risk.FromDataset(sds, w)
					if err != nil {
						return nil, fmt.Errorf("server: shard %d standby: %w", i, err)
					}
					sc.Engine = sengine
				} else {
					sst, err := store.New(sds)
					if err != nil {
						return nil, fmt.Errorf("server: shard %d standby: %w", i, err)
					}
					sengine, err := risk.FromAnalyzer(sst.Snapshot().Analyzer(), w)
					if err != nil {
						return nil, fmt.Errorf("server: shard %d standby: %w", i, err)
					}
					sc.Engine = sengine
					sc.Store = sst
				}
				standby, err := risk.NewStandby(sc)
				if err != nil {
					return nil, fmt.Errorf("server: shard %d standby: %w", i, err)
				}
				sh.standby = standby
			}
		}
		f.shards = append(f.shards, sh)
	}
	return f, nil
}
