// Command hpcserve serves the online failure-risk API over one dataset:
// live per-node risk scores from internal/risk and cached conditional-
// probability queries from internal/analysis, as JSON over HTTP.
//
// Usage:
//
//	hpcserve [-data dir | -seed 1 -scale 0.5] [-addr 127.0.0.1:8080] [-window 24h]
//	         [-live-ingest=true] [-correlation-windows day,week]
//	         [-wal dir [-wal-fsync always|interval|never]
//	         [-snapshot-every 5m]] [-shards N [-standby]] [-chaos-seed N]
//	         [-chaos-kill-shard I -chaos-kill-after 5s]
//
// hpcserve reads only the served tables of -data: systems.csv,
// failures.csv and the layout_<id>.csv files. The job, temperature,
// maintenance and neutron tables, which only the offline analyses use, are
// neither parsed nor validated, so -strictness and -max-skip-rate judge the
// served tables alone.
//
// The server answers from a versioned dataset store. With -live-ingest (the
// default), events accepted by POST /v1/events advance that store, so
// /v1/condprob answers reflect them on the next query — no restart, no
// reload; -live-ingest=false freezes the analysis dataset at boot while the
// risk engine keeps scoring live events.
//
// With -wal, ingested events are write-ahead logged before the engine
// observes them and the engine state is snapshotted periodically; on
// startup the snapshot is restored and the WAL tail replayed — into both
// the engine and the dataset store — so a crashed server resumes with state
// identical to an uninterrupted run. One upkeep loop (every 500ms, or every
// -wal-fsync-interval under -wal-fsync interval when that is shorter)
// flushes a quiet interval-policy WAL, writes the snapshots -snapshot-every
// makes due, and, after a full disk has made a shard read-only, probes for
// space until writes can resume.
//
// With -shards N, the fleet is split into N supervised fault domains by
// consistent hashing on system ID; each shard has its own store, engine and
// (under -wal) WAL segment tree at <dir>/shard-NNN. The default -shards 0
// is the same server with one shard whose WAL segments and snapshot sit
// directly in <dir>, the layout from before sharding. Cross-system queries
// scatter-gather with per-shard deadlines and answer partially (X-Partial:
// true) when a shard is down. With -standby, every shard's WAL is tailed by
// a warm standby that the supervisor promotes automatically when the shard
// dies. GET /readyz reports not-ready until every shard serves and every
// standby is warm.
//
// With -chaos-seed, a deterministic fault injector wraps the handler
// (latency spikes, 503s, aborted connections) for resilience testing; with
// -chaos-kill-shard, one shard is killed after -chaos-kill-after to
// exercise failover end to end.
//
// A SIGINT or SIGTERM drains in-flight requests, syncs and closes every
// WAL, and exits 0.
//
// Endpoints (see internal/server):
//
//	GET  /v1/risk/{node}   one node's live follow-up-failure risk
//	GET  /v1/risk/top?k=K  the K highest-risk nodes right now
//	GET  /v1/condprob      cached conditional-vs-baseline query
//	GET  /v1/correlations  mined class-to-class correlation rules
//	GET  /v1/anomalies     nodes failing unlike their rack neighborhood
//	GET  /v1/snapshot      canonical engine state
//	POST /v1/events        feed failure events into the engine
//	GET  /healthz          liveness
//	GET  /readyz           readiness (shards serving, standbys warm)
//	GET  /metrics          Prometheus text metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hpcfail/hpcfail"
	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/cli"
	"github.com/hpcfail/hpcfail/internal/faultinject"
	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/server"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/wal"
)

func main() {
	cli.Main("hpcserve", run)
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("hpcserve", flag.ContinueOnError)
	data := fs.String("data", "", "dataset directory (omit to generate)")
	seed := fs.Int64("seed", 1, "seed when generating")
	scale := fs.Float64("scale", 0.5, "catalog scale when generating")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	window := fs.Duration("window", trace.Day, "risk window and lift-table look-ahead")
	liveIngest := fs.Bool("live-ingest", true, "apply accepted events to the versioned dataset store so condprob answers track ingest (false = freeze the analysis dataset at boot)")
	corrWindows := fs.String("correlation-windows", "", "comma-separated correlation-mining windows: day, week, month or Go durations (empty = day,week)")
	walDir := fs.String("wal", "", "write-ahead-log directory (empty = no durability)")
	walFsync := fs.String("wal-fsync", "interval", "WAL fsync policy: always, interval or never")
	walFsyncEvery := fs.Duration("wal-fsync-interval", 100*time.Millisecond, "fsync spacing under -wal-fsync=interval (an acked append reaches disk within two of these)")
	snapEvery := fs.Duration("snapshot-every", 5*time.Minute, "engine snapshot spacing under -wal (0 = WAL only)")
	faultENOSPC := fs.Int64("wal-fault-enospc-after-bytes", 0, "fault injection: WAL filesystem turns sticky disk-full after this many bytes written (0 = off)")
	faultClear := fs.String("wal-fault-clear-file", "", "fault injection: creating this file clears the injected disk-full condition (operator 'freed space')")
	shards := fs.Int("shards", 0, "split the fleet into N supervised fault-domain shards (0 = single-store layout)")
	standby := fs.Bool("standby", false, "give every shard a warm standby replaying its WAL (needs -shards and -wal)")
	chaosSeed := fs.Int64("chaos-seed", 0, "enable deterministic fault injection with this seed (0 = off)")
	chaosLatency := fs.Float64("chaos-latency", 0.1, "chaos: probability of an injected delay")
	chaosError := fs.Float64("chaos-error", 0.05, "chaos: probability of an injected 503")
	chaosAbort := fs.Float64("chaos-abort", 0.02, "chaos: probability of an aborted connection")
	chaosKillShard := fs.Int("chaos-kill-shard", -1, "chaos: kill this shard once after -chaos-kill-after (-1 = off)")
	chaosKillAfter := fs.Duration("chaos-kill-after", 5*time.Second, "chaos: delay before the -chaos-kill-shard kill")
	adminToken := fs.String("admin-token", "", "token gating the dataset-management API (empty = open)")
	policyOf := cli.PolicyFlags(fs, "lenient")
	versionOf := cli.VersionFlag(fs, "hpcserve")
	profileOf := cli.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if versionOf() {
		return nil
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if *window <= 0 {
		return cli.Usagef("-window must be positive, got %v", *window)
	}
	if *shards < 0 {
		return cli.Usagef("-shards must be >= 0, got %d", *shards)
	}
	if *standby && (*shards < 1 || *walDir == "") {
		return cli.Usagef("-standby needs -shards >= 1 and -wal")
	}
	corrWins, err := parseWindowList(*corrWindows)
	if err != nil {
		return cli.Usagef("-correlation-windows: %v", err)
	}

	// Install the shutdown handler before the (potentially slow) dataset
	// load so an early SIGINT or SIGTERM is not lost to the default
	// disposition. Both signals drain identically: in-flight requests
	// finish, the WAL gets a final sync, and the process exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Profiles cover boot and serving; the drain after SIGINT or SIGTERM
	// returns through here, so the stop func flushes them on shutdown.
	stopProf, err := profileOf()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	var ds *hpcfail.Dataset
	if *data != "" {
		policy, err := policyOf()
		if err != nil {
			return err
		}
		var rep *hpcfail.ValidationReport
		ds, rep, err = trace.LoadServedWith(*data, policy)
		if err != nil {
			cli.PrintReport("hpcserve", rep, 5)
			return err
		}
		cli.PrintReport("hpcserve", rep, 5)
	} else {
		fmt.Fprintf(os.Stderr, "hpcserve: generating synthetic dataset (seed=%d scale=%.2f)...\n", *seed, *scale)
		var err error
		ds, err = hpcfail.Generate(hpcfail.GenerateOptions{Seed: *seed, Scale: *scale})
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	cfg := server.Config{FrozenDataset: !*liveIngest, Window: *window, CorrelationWindows: corrWins, Logf: logf}

	// Optional storage-fault injection: wrap the real filesystem so the WAL
	// (and snapshot machinery) hit a deterministic ENOSPC wall mid-run. Used
	// by the crash-consistency and read-only-degradation e2e tests.
	var walFS iofault.FS
	if *faultENOSPC > 0 || *faultClear != "" {
		walFS = iofault.NewInject(iofault.Disk, iofault.InjectSpec{
			MaxWriteBytes: *faultENOSPC,
			ClearFile:     *faultClear,
		})
		logf("hpcserve: WAL fault injection armed (enospc after %d bytes, clear file %q)", *faultENOSPC, *faultClear)
	}
	// The server partitions the dataset and builds each shard's store,
	// engine and (under -wal) journal itself. -shards 0 is one shard whose
	// WAL and snapshot sit directly in the -wal dir; -shards N keeps one
	// shard-NNN segment tree per fault domain there.
	cfg.Dataset = ds
	cfg.Shards = *shards
	cfg.AdminToken = *adminToken
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		cfg.ShardWAL = wal.Options{
			Dir:      *walDir,
			Policy:   policy,
			Interval: *walFsyncEvery,
			FS:       walFS,
		}
		if *snapEvery > 0 {
			cfg.SnapshotPolicy = checkpoint.Fixed{Every: *snapEvery}
		}
		cfg.Standby = *standby
		// Named datasets (the multi-tenant registry) persist under the WAL
		// root: <dir>/<name>/tenant.json next to that tenant's shard-NNN WAL
		// trees. Without -wal they are memory-only. The registry ignores the
		// default tenant's own shard-NNN dirs and segment files sharing the
		// root.
		cfg.TenantRoot = *walDir
		cfg.TenantWAL = cfg.ShardWAL
	}

	if *chaosSeed != 0 {
		chaos := faultinject.NewChaos(faultinject.ChaosSpec{
			Seed:        *chaosSeed,
			LatencyProb: *chaosLatency,
			MaxLatency:  200 * time.Millisecond,
			ErrorProb:   *chaosError,
			AbortProb:   *chaosAbort,
		})
		cfg.Middleware = chaos.Middleware
		logf("hpcserve: chaos injection enabled (seed=%d)", *chaosSeed)
	}

	if *chaosKillShard >= 0 {
		sc := faultinject.NewShardChaos(faultinject.ShardChaosSpec{
			Seed:      *chaosSeed,
			KillShard: *chaosKillShard,
			KillAfter: *chaosKillAfter,
		})
		cfg.OnStart = func(ctx context.Context, s *server.Server) { sc.Run(ctx, s) }
		logf("hpcserve: shard chaos: killing shard %d after %v", *chaosKillShard, *chaosKillAfter)
	}

	return server.Serve(ctx, *addr, cfg)
}

// parseWindowList parses the -correlation-windows value: a comma-separated
// list of windows in the query vocabulary (trace.ParseWindow), so the miners
// maintain no window a /v1/correlations query could not ask for. Empty
// input means "use the server default" (nil).
func parseWindowList(s string) ([]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		w, err := trace.ParseWindow(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}
