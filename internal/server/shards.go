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
// the standby (risk.Standby.Promote; package wal says what that reads).
package server

import (
	"cmp"
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

// DefaultHeartbeatInterval spaces upkeep rounds (see fabric.tick), unless
// an interval-policy WAL needs them closer (see upkeepPeriod).
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
	// probe in an upkeep round. While set, the shard rejects writes but
	// keeps serving reads — the durable state it already acknowledged stays
	// queryable.
	diskFull atomic.Bool

	mu      sync.RWMutex
	st      *store.Store
	engine  *risk.Engine
	journal *risk.Journal
	standby *risk.Standby
	// miner maintains the shard's correlation-rule counts incrementally
	// against st; it is rebuilt alongside the store on promotion.
	miner *correlate.Miner
	// lastJournal is the journal the shard last served with. Its WAL count
	// stays readable after a kill detaches it, until a promotion retires it.
	lastJournal *risk.Journal
	// carry keeps the shard's counters monotone across failover: it holds
	// the final counts of every component the shard retired, minus what
	// its current components had counted when it adopted them (see row).
	carry counters
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
// and failover machinery. Every server has one, built by newFabric; the
// default Config.Shards == 0 server is a one-shard fabric.
type fabric struct {
	sup    *store.Supervisor
	shards []*shard
	// fleet is the union catalog, ascending by system ID — the routing and
	// scope-validation view of the whole dataset.
	fleet  []trace.SystemInfo
	owner  map[int]int // system ID -> shard index
	window time.Duration
	// deadline bounds each shard's slice of a scatter-gather query.
	deadline time.Duration
	// walTmpl is the per-shard WAL option template; Dir is the root under
	// which each shard keeps its own segment tree (empty = no durability).
	walTmpl wal.Options
	// rootWAL keeps the one shard's WAL directly under walTmpl.Dir instead
	// of shard-000/ — the pre-sharding layout Config.Shards == 0 selects.
	rootWAL    bool
	snapPolicy checkpoint.Policy
	// corrWindows are the correlation windows every shard's miner maintains
	// (nil = correlate.DefaultWindows); promotion rebuilds miners with them.
	corrWindows []time.Duration
	// roEntries counts read-only-mode entries; walAppendErrs counts WAL
	// append/sync/snapshot failures. Both feed /metrics.
	roEntries     atomic.Uint64
	walAppendErrs atomic.Uint64
	now           func() time.Time
	logf          func(format string, args ...any)
}

func (f *fabric) walOptsOf(i int) wal.Options {
	opts := f.walTmpl
	if opts.Dir != "" && !f.rootWAL {
		opts.Dir = shardWALDir(f.walTmpl.Dir, i)
	}
	return opts
}

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
// (chaos) applies before fn, which never starts once the caller has given
// up. A write waits out an fn that has started: reporting it as slow would
// tell the client a write failed that the shard goes on to make.
func (f *fabric) call(ctx context.Context, i int, write bool, fn func(st *store.Store, eng *risk.Engine, j *risk.Journal) error) error {
	if st := f.sup.State(i); st != store.ShardReady {
		return fmt.Errorf("%w: shard %d %s", errShardDown, i, st)
	}
	sh := f.shards[i]
	st, eng, j := sh.view()
	const pending, started, abandoned = 0, 1, 2
	var state atomic.Int32
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
				return
			}
		}
		if !state.CompareAndSwap(pending, started) {
			return
		}
		done <- fn(st, eng, j)
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		if !state.CompareAndSwap(pending, abandoned) && write {
			return <-done
		}
		return fmt.Errorf("%w: shard %d", errShardSlow, i)
	}
}

// detachJournal takes the shard's journal away and closes it. ObserveBatch
// holds the journal mutex, so once Close returns no further append can
// reach a dead leader's WAL — the standby's final catchup reads a quiesced
// log and promotion cannot split-brain.
func (f *fabric) detachJournal(i int) {
	sh := f.shards[i]
	sh.mu.Lock()
	j := sh.journal
	sh.journal = nil
	sh.mu.Unlock()
	if j != nil {
		if err := j.Close(); err != nil {
			f.logf("hpcserve: shard %d: closing journal: %v", i, err)
		}
	}
}

// walFault counts a failed WAL append, sync or snapshot on shard i, logs
// it, and latches the shard into read-only mode when the cause is ENOSPC.
func (f *fabric) walFault(i int, what string, err error) {
	f.walAppendErrs.Add(1)
	f.logf("hpcserve: shard %d %s: %v", i, what, err)
	if iofault.IsDiskFull(err) && f.shards[i].diskFull.CompareAndSwap(false, true) {
		f.roEntries.Add(1)
		f.logf("hpcserve: shard %d: WAL disk full, entering read-only mode (reads keep serving)", i)
	}
}

// readOnly reports whether any shard is in read-only mode. Ingest gates on
// it, so a disk-full episode turns into fast 503s instead of per-event
// append faults; only an upkeep round's space probe lifts the latch.
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
	j, err := sb.Promote(f.snapPolicy, f.walOptsOf(i), f.now)
	if err != nil {
		f.sup.Transition(i, store.ShardPromoting, store.ShardDown, "promotion failed: "+err.Error())
		return fmt.Errorf("server: shard %d promotion: %w", i, err)
	}
	sh.mu.Lock()
	retired := countersOf(sh.st, sh.engine, sh.lastJournal)
	if st := j.Store(); st != nil {
		sh.st = st
	}
	sh.engine = j.Engine()
	sh.journal, sh.lastJournal = j, j
	sh.standby = nil
	// The promoted store is a different log; a fresh miner re-mines it on
	// the next correlations query instead of trusting stale positions.
	sh.miner = correlate.NewMiner(sh.st, f.corrWindows...)
	sh.carry = sh.carry.plus(retired).minus(countersOf(sh.st, sh.engine, j))
	sh.mu.Unlock()
	sh.stall.Store(0)
	sh.gen.Add(1)
	sh.failovers.Add(1)
	f.sup.Transition(i, store.ShardPromoting, store.ShardReady, "standby promoted")
	f.logf("hpcserve: shard %d promoted standby (%d wal records)", i, j.WALCount())
	return nil
}

// counters are the counts a shard reads off its swappable components: WAL
// records off the journal, appends and rebuilds off the store, observed
// events off the engine. A promotion replaces all three, so a shard
// reports them through its carry (see shard.carry).
type counters struct {
	walRecords, appends, rebuilds, observed uint64
}

// countersOf reads the counts of one component set (j may be nil).
func countersOf(st *store.Store, eng *risk.Engine, j *risk.Journal) counters {
	_, observed := eng.Counts()
	c := counters{appends: st.Appends(), rebuilds: st.Rebuilds(), observed: observed}
	if j != nil {
		c.walRecords = j.WALCount()
	}
	return c
}

// plus and minus wrap around like all uint64 arithmetic: a carry alone is
// "negative" when the successors had counted more than what they replaced,
// but a carry plus its current components' counts never is.
func (c counters) plus(o counters) counters {
	return counters{c.walRecords + o.walRecords, c.appends + o.appends, c.rebuilds + o.rebuilds, c.observed + o.observed}
}

func (c counters) minus(o counters) counters {
	return counters{c.walRecords - o.walRecords, c.appends - o.appends, c.rebuilds - o.rebuilds, c.observed - o.observed}
}

// tick is one upkeep round, the only periodic work a fabric gets. Where
// the fabric needs supervision it first supervises; then every journaled
// shard that is read-only probes for recovered space (and, until a probe
// succeeds, skips the rest, which would allocate), flushes its WAL when the
// fsync policy makes that due, and consults its snapshot policy at the
// fabric's clock. It never prunes engine state: Observe slides each
// system's window on that system's own newest event and MaxEventsPerSystem
// caps what is left, so memory stays bounded while a quiet system keeps its
// ?at=-pinned answers. ServeListener runs it every upkeep period;
// SuperviseTick drives it by hand.
func (f *fabric) tick(ctx context.Context) {
	if f.needsSupervision() {
		f.supervise(ctx)
	}
	now := f.now()
	for i, sh := range f.shards {
		_, _, j := sh.view()
		if j == nil {
			continue
		}
		if sh.diskFull.Load() {
			if j.ProbeSpace() != nil {
				continue
			}
			sh.diskFull.Store(false)
			f.logf("hpcserve: shard %d: disk space recovered, leaving read-only mode", i)
		}
		if err := j.Flush(); err != nil {
			f.walFault(i, "wal sync", err)
		}
		if wrote, err := j.MaybeSnapshot(now); err != nil {
			f.walFault(i, "snapshot", err)
		} else if wrote {
			f.logf("hpcserve: shard %d snapshot written (%d wal records applied)", i, j.WALCount())
		}
	}
}

// supervise heartbeats every Ready shard, expires the silent ones, drains
// every standby's replication tail, and promotes warm standbys of Down
// shards.
func (f *fabric) supervise(ctx context.Context) {
	for i := range f.shards {
		if f.sup.State(i) != store.ShardReady {
			continue
		}
		hctx, cancel := context.WithTimeout(ctx, f.deadline)
		err := f.call(hctx, i, false, func(st *store.Store, eng *risk.Engine, _ *risk.Journal) error {
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

// needsSupervision reports whether upkeep rounds supervise: a one-shard
// fabric without a standby has nothing to fail over to.
func (f *fabric) needsSupervision() bool {
	return f.n() > 1 || f.shards[0].getStandby() != nil
}

// syncAll flushes every shard's WAL — the first step of Server.Close.
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

// maxVersion returns the highest dataset-store version across shards —
// what a one-shard server reads off its one snapshot.
func (f *fabric) maxVersion() uint64 {
	var v uint64
	for _, sh := range f.shards {
		st, _, _ := sh.view()
		v = max(v, st.Snapshot().Version())
	}
	return v
}

// allShards lists every shard index.
func (f *fabric) allShards() []int {
	idxs := make([]int, f.n())
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// ShardCount returns the number of fault domains the server is split into
// (1 for the default Config.Shards == 0 server).
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
// deterministic stand-in for the upkeep loop's continuous catchup.
func (s *Server) CatchupStandbys() { s.fabric.catchupStandbys() }

// SuperviseTick runs one upkeep round synchronously over this dataset and
// every named tenant: supervision (heartbeats, expiry, catchup,
// auto-failover) where a fabric needs it, then each journaled shard's
// disk-space probe, due WAL flush and snapshot policy. ServeListener runs it
// on its one ticker; a caller serving Handler itself gets upkeep only by
// calling it.
func (s *Server) SuperviseTick(ctx context.Context) {
	s.fabric.tick(ctx)
	s.eachTenant(func(_ string, ts *Server) { ts.fabric.tick(ctx) })
}

// fleetCopy deep-copies a system catalog, sorted ascending by ID.
func fleetCopy(systems []trace.SystemInfo) []trace.SystemInfo {
	out := append([]trace.SystemInfo(nil), systems...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// newFabric builds every server's fabric: max(cfg.Shards, 1) supervised
// shards over cfg.Dataset. It partitions by consistent hashing (a one-shard
// ring keeps the dataset itself, uncopied), then builds per shard a private
// store, a risk engine over that partition's analyzer, and — when
// cfg.ShardWAL.Dir is set — a durable journal (see walOptsOf for where)
// plus, with cfg.Standby, a warm standby tailing that same directory. Shard
// counts above the system count are clamped: an empty shard could neither
// score nor ingest anything.
func newFabric(cfg Config, w time.Duration, now func() time.Time, logf func(string, ...any)) (*fabric, error) {
	ds := cfg.Dataset
	if cfg.Store != nil {
		ds = cfg.Store.Snapshot().Dataset()
	}
	switch {
	case ds == nil:
		return nil, fmt.Errorf("server: nil dataset")
	case len(ds.Systems) == 0:
		return nil, fmt.Errorf("server: dataset has no systems")
	case cfg.Shards > 1 && (cfg.Store != nil || cfg.Engine != nil || cfg.Journal != nil):
		return nil, fmt.Errorf("server: Store, Engine and Journal need a one-shard server (Shards <= 1)")
	}
	n := max(cfg.Shards, 1)
	if got := len(ds.Systems); n > got {
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
	parts, ids := store.PartitionDataset(ds, ring)
	owner := make(map[int]int, len(ds.Systems))
	for i, group := range ids {
		for _, id := range group {
			owner[id] = i
		}
	}
	f := &fabric{
		sup:         sup,
		fleet:       fleetCopy(ds.Systems),
		owner:       owner,
		deadline:    cmp.Or(max(cfg.ShardDeadline, 0), DefaultShardDeadline),
		walTmpl:     cfg.ShardWAL,
		rootWAL:     cfg.Shards == 0,
		snapPolicy:  cfg.SnapshotPolicy,
		corrWindows: cfg.CorrelationWindows,
		now:         now,
		logf:        logf,
	}
	for i := 0; i < n; i++ {
		// Adopted components are nil unless set, and then n == 1.
		st, engine, journal := cfg.Store, cfg.Engine, cfg.Journal
		if st == nil {
			if st, err = store.New(parts[i]); err != nil {
				return nil, fmt.Errorf("server: shard %d: %w", i, err)
			}
		}
		if engine == nil && journal != nil {
			engine = journal.Engine()
		}
		if engine == nil {
			if engine, err = risk.FromAnalyzer(st.Snapshot().Analyzer(), w); err != nil {
				return nil, fmt.Errorf("server: shard %d: %w", i, err)
			}
		}
		if journal == nil && cfg.ShardWAL.Dir != "" {
			jc := risk.JournalConfig{Engine: engine, WAL: f.walOptsOf(i), SnapshotPolicy: cfg.SnapshotPolicy, Now: now}
			if !cfg.FrozenDataset {
				jc.Store = st
			}
			var stats risk.RecoveryStats
			if journal, stats, err = risk.OpenJournal(jc); err != nil {
				return nil, fmt.Errorf("server: shard %d: %w", i, err)
			}
			if stats.SnapshotLoaded || stats.Replayed > 0 {
				logf("hpcserve: shard %d recovered (snapshot %d events, replayed %d, skipped %d)",
					i, stats.SnapshotEvents, stats.Replayed, stats.Skipped)
			}
		}
		// A journal is the one writer of its shard's live store: ingest
		// appends to the store itself only when there is no journal.
		if journal != nil && !cfg.FrozenDataset && journal.Store() != st {
			return nil, fmt.Errorf("server: shard %d: a live dataset's journal must apply its events to the shard's store", i)
		}
		sh := &shard{
			idx:         i,
			systems:     fleetCopy(st.Snapshot().Dataset().Systems),
			breaker:     newBreaker(cfg.BreakerThreshold, now),
			st:          st,
			engine:      engine,
			journal:     journal,
			lastJournal: journal,
			miner:       correlate.NewMiner(st, cfg.CorrelationWindows...),
		}
		if cfg.Standby && cfg.ShardWAL.Dir != "" {
			// The standby gets its own dataset copy, store and engine over the
			// same boot partition, built as the leader's are; it replays the
			// leader's WAL through the follower, so promotion reproduces the
			// leader's state. Like the leader, it feeds its store only when
			// the dataset is live.
			sst, err := store.New(ds.FilterSystems(ids[i]...))
			if err != nil {
				return nil, fmt.Errorf("server: shard %d standby: %w", i, err)
			}
			sengine, err := risk.FromAnalyzer(sst.Snapshot().Analyzer(), w)
			if err != nil {
				return nil, fmt.Errorf("server: shard %d standby: %w", i, err)
			}
			sc := risk.StandbyConfig{Dir: f.walOptsOf(i).Dir, FS: cfg.ShardWAL.FS, Engine: sengine}
			if !cfg.FrozenDataset {
				sc.Store = sst
			}
			if sh.standby, err = risk.NewStandby(sc); err != nil {
				return nil, fmt.Errorf("server: shard %d standby: %w", i, err)
			}
		}
		f.shards = append(f.shards, sh)
	}
	f.window = f.shards[0].engine.Window()
	return f, nil
}
