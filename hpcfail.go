// Package hpcfail is a toolkit for understanding how HPC systems fail from
// their operational logs. It reproduces the analyses of "Reading between
// the lines of failure logs: Understanding how HPC systems fail" (El-Sayed
// and Schroeder, DSN 2013) as a reusable Go library:
//
//   - a data model and CSV codecs for LANL-style operational logs (node
//     outages with a root-cause taxonomy, job logs, temperature samples,
//     maintenance events, neutron-monitor series);
//   - a conditional-probability analysis engine that answers "how much more
//     likely is a failure in the day/week/month after event X?" at node,
//     rack and system granularity, with confidence intervals and
//     significance tests;
//   - a statistics substrate (proportion CIs, two-sample z-tests,
//     chi-square tests, Pearson/Spearman correlation) and count-data GLMs
//     (Poisson and negative-binomial regression via IRLS, likelihood-ratio
//     ANOVA);
//   - a calibrated synthetic trace generator standing in for the LANL field
//     data, whose ground truth encodes the paper's reported effects;
//   - experiment runners that regenerate every table and figure of the
//     paper and render them as text;
//   - an online serving layer: a deterministic sliding-window risk engine
//     that turns the conditional-probability findings into live per-node
//     follow-up-failure scores, and an HTTP JSON API over it (see
//     cmd/hpcserve);
//   - a streaming correlation layer: an incremental miner for windowed
//     class-to-class correlation rules over the versioned store, and a
//     vicinity anomaly detector flagging nodes that fail unlike their
//     rack/position neighborhood (served as /v1/correlations and
//     /v1/anomalies).
//
// # Quick start
//
//	ds, err := hpcfail.Generate(hpcfail.GenerateOptions{Seed: 1, Scale: 0.25})
//	if err != nil { ... }
//	a := hpcfail.NewAnalyzer(ds)
//	week := a.CondProb(ds.GroupSystems(hpcfail.Group1), nil, nil, hpcfail.Week, hpcfail.ScopeNode)
//	fmt.Printf("P(failure within a week | failure) = %.1f%% (baseline %.1f%%)\n",
//		100*week.Conditional.P(), 100*week.Baseline.P())
//
// Datasets can also be loaded from CSV directories written by SaveDataset
// (see cmd/hpcgen), so the same analyses run on real logs converted into
// the schema.
package hpcfail

import (
	"context"
	"io"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/checkpoint"
	"github.com/hpcfail/hpcfail/internal/client"
	"github.com/hpcfail/hpcfail/internal/correlate"
	"github.com/hpcfail/hpcfail/internal/experiments"
	"github.com/hpcfail/hpcfail/internal/faultinject"
	"github.com/hpcfail/hpcfail/internal/lanl"
	"github.com/hpcfail/hpcfail/internal/replay"
	"github.com/hpcfail/hpcfail/internal/risk"
	"github.com/hpcfail/hpcfail/internal/server"
	"github.com/hpcfail/hpcfail/internal/simulate"
	"github.com/hpcfail/hpcfail/internal/store"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/validate"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// Core data model re-exports.
type (
	// Dataset bundles every log type for a collection of systems.
	Dataset = trace.Dataset
	// SystemInfo describes one system covered by a dataset.
	SystemInfo = trace.SystemInfo
	// Failure is a single node-outage record.
	Failure = trace.Failure
	// Job is a single job record from a usage log.
	Job = trace.Job
	// TempSample is one periodic temperature reading.
	TempSample = trace.TempSample
	// MaintenanceEvent records a maintenance action on a node.
	MaintenanceEvent = trace.MaintenanceEvent
	// NeutronSample is one neutron-monitor reading.
	NeutronSample = trace.NeutronSample
	// Interval is a right-open time interval.
	Interval = trace.Interval
	// Category is the high-level root cause of an outage.
	Category = trace.Category
	// HWComponent is the component behind a hardware failure.
	HWComponent = trace.HWComponent
	// SWClass is the subsystem behind a software failure.
	SWClass = trace.SWClass
	// EnvClass is the facility subtype of an environment failure.
	EnvClass = trace.EnvClass
	// Group identifies a system's architecture group.
	Group = trace.Group
	// Pred is a failure predicate for analysis queries.
	Pred = trace.Pred
)

// Root-cause taxonomy re-exports.
const (
	Environment  = trace.Environment
	Hardware     = trace.Hardware
	Human        = trace.Human
	Network      = trace.Network
	Software     = trace.Software
	Undetermined = trace.Undetermined

	Group1 = trace.Group1
	Group2 = trace.Group2

	CPU         = trace.CPU
	Memory      = trace.Memory
	NodeBoard   = trace.NodeBoard
	PowerSupply = trace.PowerSupply
	Fan         = trace.Fan
	MSCBoard    = trace.MSCBoard
	Midplane    = trace.Midplane

	DST          = trace.DST
	OS           = trace.OS
	PFS          = trace.PFS
	CFS          = trace.CFS
	PatchInstall = trace.PatchInstall
	OtherSW      = trace.OtherSW

	PowerOutage = trace.PowerOutage
	PowerSpike  = trace.PowerSpike
	UPS         = trace.UPS
	Chillers    = trace.Chillers
	OtherEnv    = trace.OtherEnv
)

// Standard analysis windows.
const (
	Day   = trace.Day
	Week  = trace.Week
	Month = trace.Month
)

// Analysis engine re-exports.
type (
	// Analyzer runs the paper's analyses over one dataset.
	Analyzer = analysis.Analyzer
	// Scope selects node, rack or system granularity.
	Scope = analysis.Scope
	// CondResult is one conditional-vs-baseline comparison.
	CondResult = analysis.CondResult
	// FollowUp is a labelled CondResult.
	FollowUp = analysis.FollowUp
	// Predictor is the root-cause-aware follow-up-failure predictor.
	Predictor = analysis.Predictor
	// Evaluation summarizes a predictor's held-out performance.
	Evaluation = analysis.Evaluation
)

// Scopes.
const (
	ScopeNode   = analysis.ScopeNode
	ScopeRack   = analysis.ScopeRack
	ScopeSystem = analysis.ScopeSystem
)

// NewAnalyzer builds an analyzer over a sorted dataset.
func NewAnalyzer(ds *Dataset) *Analyzer { return analysis.New(ds) }

// Predicate helpers.
var (
	// CategoryPred matches failures of one category.
	CategoryPred = trace.CategoryPred
	// HWPred matches hardware failures of one component.
	HWPred = trace.HWPred
	// SWPred matches software failures of one class.
	SWPred = trace.SWPred
	// EnvPred matches environment failures of one subtype.
	EnvPred = trace.EnvPred
	// PredOf wraps an arbitrary filter function as a predicate; such
	// predicates bypass the class-partitioned index fast path.
	PredOf = trace.PredOf
)

// GenerateOptions configures synthetic dataset generation.
type GenerateOptions = simulate.Options

// Generate builds a synthetic LANL-style dataset. Scale in (0,1] shrinks
// the default ten-system catalog; seed makes generation deterministic.
func Generate(opts GenerateOptions) (*Dataset, error) { return simulate.Generate(opts) }

// SaveDataset writes a dataset as a directory of CSV files.
func SaveDataset(dir string, ds *Dataset) error { return trace.SaveDir(dir, ds) }

// LoadDataset reads a dataset directory written by SaveDataset.
func LoadDataset(dir string) (*Dataset, error) { return trace.LoadDir(dir) }

// Experiment re-exports: run the paper's tables and figures.
type (
	// ExperimentSuite runs the paper's experiments over one dataset.
	ExperimentSuite = experiments.Suite
	// ExperimentResult is one experiment's outcome.
	ExperimentResult = experiments.Result
)

// NewExperimentSuite builds an experiment suite over a dataset.
func NewExperimentSuite(ds *Dataset) *ExperimentSuite { return experiments.NewSuite(ds) }

// ExperimentIDs lists every reproducible table/figure ID in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// WindowName returns the paper's name for one of the standard windows.
func WindowName(w time.Duration) string { return trace.WindowName(w) }

// Checkpoint-policy re-exports: apply the correlation findings to
// checkpoint-interval selection (see internal/checkpoint).
type (
	// CheckpointPolicy chooses checkpoint spacing over time.
	CheckpointPolicy = checkpoint.Policy
	// FixedCheckpoint checkpoints at a constant interval.
	FixedCheckpoint = checkpoint.Fixed
	// RiskAwareCheckpoint tightens the interval after failures.
	RiskAwareCheckpoint = checkpoint.RiskAware
	// CheckpointResult aggregates a replay.
	CheckpointResult = checkpoint.Result
)

// YoungInterval returns Young's optimum checkpoint interval
// sqrt(2 * cost * MTBF).
func YoungInterval(cost, mtbf time.Duration) time.Duration {
	return checkpoint.YoungInterval(cost, mtbf)
}

// ReplayCheckpoints replays a checkpoint policy against one node's failure
// history.
func ReplayCheckpoints(period Interval, failures []time.Time, p CheckpointPolicy, cost time.Duration) (CheckpointResult, error) {
	return checkpoint.Replay(period, failures, p, cost)
}

// CompareCheckpointPolicies replays several policies over every node of the
// given systems.
func CompareCheckpointPolicies(systems []SystemInfo, failures func(system, node int) []time.Time, cost time.Duration, policies ...CheckpointPolicy) ([]CheckpointResult, error) {
	return checkpoint.Compare(systems, failures, cost, policies...)
}

// LANL-import re-exports: run the analyses on the real public release.
type (
	// LANLMapping declares the column layout of a LANL-style failure
	// table; DefaultLANLMapping matches the public release's headers.
	LANLMapping = lanl.Mapping
	// LANLImportResult bundles imported failures with per-row issues.
	LANLImportResult = lanl.Result
)

// DefaultLANLMapping returns the column mapping of the public LANL
// failure-data release.
func DefaultLANLMapping() LANLMapping { return lanl.DefaultMapping() }

// ImportLANL parses a LANL-style failure CSV into a ready-to-analyze
// dataset, deriving system descriptors from the records. The returned
// result lists rows that were skipped.
func ImportLANL(r io.Reader, m LANLMapping) (*Dataset, *LANLImportResult, error) {
	return lanl.ImportDataset(r, m)
}

// Validation re-exports: ingest messy real logs under an explicit policy.
type (
	// ValidationPolicy governs how ingestion treats corrupt records.
	ValidationPolicy = validate.Policy
	// ValidationMode selects fail-fast, skip-and-report, or repair.
	ValidationMode = validate.Mode
	// ValidationReport aggregates the diagnostics of one load.
	ValidationReport = validate.Report
	// Diagnostic is one line-anchored validation finding.
	Diagnostic = validate.Diagnostic
)

// Validation modes.
const (
	// Strict aborts the load on the first corrupt record.
	Strict = validate.Strict
	// Lenient skips corrupt records, reporting each one.
	Lenient = validate.Lenient
	// Repair coerces near-miss records into canonical form where possible
	// and skips the rest.
	Repair = validate.Repair
)

// ErrBudgetExceeded is wrapped by load errors when a dataset's skip-rate
// exceeds the policy's error budget.
var ErrBudgetExceeded = validate.ErrBudgetExceeded

// DefaultValidationPolicy returns the Lenient policy with the standard
// plausibility bounds and no error budget.
func DefaultValidationPolicy() ValidationPolicy { return validate.DefaultPolicy() }

// ParseValidationMode parses "strict", "lenient" or "repair".
func ParseValidationMode(s string) (ValidationMode, error) { return validate.ParseMode(s) }

// LoadDatasetWith reads a dataset directory under a validation policy,
// returning the dataset together with the validation report. The dataset
// and report are returned even when only the policy's error budget fails,
// so callers can inspect what loaded.
func LoadDatasetWith(dir string, p ValidationPolicy) (*Dataset, *ValidationReport, error) {
	return trace.LoadDirWith(dir, p)
}

// ValidateDataset applies the validation/repair engine to an in-memory
// dataset: cross-record failure checks (duplicates, overlapping outages,
// dangling references) plus reference checks for the auxiliary tables. It
// returns a sanitized copy, leaving the input unmodified.
func ValidateDataset(ds *Dataset, p ValidationPolicy) (*Dataset, *ValidationReport, error) {
	return trace.SanitizeDataset(ds, p)
}

// ImportLANLWith imports a LANL-style failure CSV under a validation
// policy, classifying skipped rows, applying plausibility checks and
// repairs, sanitizing cross-record problems, and enforcing the policy's
// error budget.
func ImportLANLWith(r io.Reader, m LANLMapping, p ValidationPolicy) (*Dataset, *ValidationReport, error) {
	return lanl.ImportDatasetWith(r, m, p)
}

// Fault-injection re-exports: deterministic corruption for robustness
// testing of ingestion pipelines.
type (
	// FaultSpec configures a corruption pass.
	FaultSpec = faultinject.Spec
	// FaultClass enumerates the injectable fault classes.
	FaultClass = faultinject.Class
	// FaultInjection is the ground truth of one injected fault.
	FaultInjection = faultinject.Injection
)

// Serving-layer re-exports: online risk scoring and the HTTP API (see
// internal/risk and internal/server).
type (
	// LiftTable is the precomputed conditional-probability table the risk
	// engine scores against.
	LiftTable = analysis.LiftTable
	// LiftKey identifies one lift-table entry (anchor class and scope).
	LiftKey = analysis.LiftKey
	// LiftEntry is one lift-table entry.
	LiftEntry = analysis.LiftEntry
	// RiskEngine scores live follow-up-failure risk per node.
	RiskEngine = risk.Engine
	// RiskConfig assembles a RiskEngine from a lift table and catalog.
	RiskConfig = risk.Config
	// RiskScore is one node's risk at one instant.
	RiskScore = risk.Score
	// RiskContribution is one active event's effect on a score.
	RiskContribution = risk.Contribution
	// RiskSnapshot is a consistent view of an engine's state.
	RiskSnapshot = risk.Snapshot
	// ServerConfig assembles the HTTP serving layer.
	ServerConfig = server.Config
	// RiskServer answers the JSON API over one dataset.
	RiskServer = server.Server
)

// BuildLiftTable precomputes the conditional-probability lift table for
// the given systems of a dataset at the given look-ahead window.
func BuildLiftTable(ds *Dataset, systems []SystemInfo, window time.Duration) (*LiftTable, error) {
	return analysis.New(ds).BuildLiftTable(systems, window)
}

// TrainLiftTable precomputes a lift table from only the first split
// fraction of each system's history, so the online scoring path can be
// evaluated on the held-out remainder (see examples/prediction).
func TrainLiftTable(ds *Dataset, systems []SystemInfo, window time.Duration, split float64) (*LiftTable, error) {
	return analysis.New(ds).TrainLiftTable(systems, window, split)
}

// NewRiskEngine builds an online risk engine over a dataset: the lift
// table is precomputed from the dataset's history, then live events fed to
// Observe move per-node scores.
func NewRiskEngine(ds *Dataset, window time.Duration) (*RiskEngine, error) {
	return risk.FromDataset(ds, window)
}

// NewRiskEngineWith builds a risk engine from an explicit configuration —
// a pre-built (or trained) lift table, catalog, and layouts.
func NewRiskEngineWith(cfg RiskConfig) (*RiskEngine, error) { return risk.New(cfg) }

// NewRiskServer builds the HTTP serving layer without listening; use its
// Handler with any http.Server or test harness.
func NewRiskServer(cfg ServerConfig) (*RiskServer, error) { return server.New(cfg) }

// Serve runs the HTTP API on addr until ctx is cancelled, then drains
// in-flight requests and returns nil. It is the body of cmd/hpcserve.
func Serve(ctx context.Context, addr string, cfg ServerConfig) error {
	return server.Serve(ctx, addr, cfg)
}

// Durability re-exports: crash-safe serving via a write-ahead log plus
// periodic snapshots (see internal/wal and internal/risk).
type (
	// WALOptions configures the write-ahead log backing a Journal.
	WALOptions = wal.Options
	// WALSyncPolicy selects when WAL appends reach stable storage.
	WALSyncPolicy = wal.SyncPolicy
	// JournalConfig assembles a Journal around a RiskEngine.
	JournalConfig = risk.JournalConfig
	// Journal is the durable ingest path: WAL-first observation with
	// periodic engine snapshots. A server opens its own journals from
	// ServerConfig.ShardWAL.
	Journal = risk.Journal
	// RecoveryStats reports what OpenJournal reconstructed on startup.
	RecoveryStats = risk.RecoveryStats
)

// WAL fsync policies, in decreasing durability order.
const (
	WALSyncAlways   = wal.SyncAlways
	WALSyncInterval = wal.SyncInterval
	WALSyncNever    = wal.SyncNever
)

// OpenJournal opens (or recovers) a durable journal over the engine: the
// newest valid snapshot is restored, the WAL tail past it replayed, and
// subsequent Observe calls are logged before they mutate engine state.
func OpenJournal(cfg JournalConfig) (*Journal, RecoveryStats, error) {
	return risk.OpenJournal(cfg)
}

// Versioned-store re-exports: the copy-on-write dataset store that unifies
// batch and online analysis (see internal/store). Readers pin an immutable
// DatasetSnapshot (dataset + incrementally-maintained analyzer + monotonic
// version) while writers append event batches; JournalConfig.Store accepts
// a shared DatasetStore so live ingest and WAL recovery advance one
// analysis dataset.
type (
	// DatasetStore is the versioned, copy-on-write owner of a canonical
	// event log.
	DatasetStore = store.Store
	// DatasetSnapshot is one immutable version of a DatasetStore's world:
	// dataset, ready analyzer, and version number.
	DatasetSnapshot = store.Snapshot
)

// NewDatasetStore builds a versioned store over a sorted dataset; the
// boot dataset becomes version 1.
func NewDatasetStore(ds *Dataset) (*DatasetStore, error) { return store.New(ds) }

// Correlation-mining re-exports: the streaming rule miner and vicinity
// anomaly detector behind GET /v1/correlations and /v1/anomalies (see
// internal/correlate).
type (
	// CorrelationMiner maintains windowed event-pair counts incrementally
	// against a DatasetStore and assembles correlation rules on demand.
	CorrelationMiner = correlate.Miner
	// CorrelationRule is one thresholded class-to-class rule with support,
	// confidence and lift.
	CorrelationRule = correlate.Rule
	// CorrelationRuleCounts is the mergeable pair-count state rules are
	// derived from; shards exchange these.
	CorrelationRuleCounts = correlate.RuleCounts
	// VicinityAnomaly is one node whose failure behaviour deviates from its
	// rack/position neighborhood.
	VicinityAnomaly = correlate.Anomaly
)

// NewCorrelationMiner builds a miner over the store for the given windows
// (none = the day and week defaults).
func NewCorrelationMiner(st *DatasetStore, windows ...time.Duration) *CorrelationMiner {
	return correlate.NewMiner(st, windows...)
}

// MergeCorrelationCounts merges per-shard rule counts into the counts an
// unsharded mine over the union dataset would produce, bit for bit.
func MergeCorrelationCounts(w time.Duration, parts []CorrelationRuleCounts) CorrelationRuleCounts {
	return correlate.MergeRuleCounts(w, parts)
}

// DetectVicinityAnomalies ranks the top k nodes of the given systems (nil =
// all) by how far their failure rate, class mix and burstiness deviate from
// their layout neighborhood.
func DetectVicinityAnomalies(a *Analyzer, systems []int, k int) []VicinityAnomaly {
	return correlate.DetectAnomalies(a, systems, k)
}

// Client re-exports: the resilient API client (see internal/client).
type (
	// ClientConfig assembles a Client.
	ClientConfig = client.Config
	// Client calls the hpcserve API with jittered retries, Retry-After
	// handling, and automatic idempotency keys on event posts.
	Client = client.Client
	// ClientEvent is one failure event for Client.PostEvents.
	ClientEvent = client.Event
	// APIError is a non-2xx server response the client did not retry away.
	APIError = client.APIError
	// DatasetClient is a Client handle scoped to one named dataset on a
	// multi-tenant server (Client.Dataset).
	DatasetClient = client.DatasetClient
)

// NewClient builds a resilient hpcserve API client.
func NewClient(cfg ClientConfig) (*Client, error) { return client.New(cfg) }

// Chaos re-exports: deterministic HTTP fault injection (see
// internal/faultinject). Wire Middleware into ServerConfig.Middleware.
type (
	// ChaosSpec configures a Chaos injector.
	ChaosSpec = faultinject.ChaosSpec
	// Chaos injects seeded latency, errors, and aborts as middleware.
	Chaos = faultinject.Chaos
)

// NewChaos builds a deterministic HTTP fault injector.
func NewChaos(spec ChaosSpec) *Chaos { return faultinject.NewChaos(spec) }

// Corrupt serializes failures into the canonical CSV and injects the
// spec's fault mix, returning the corrupted bytes and per-fault ground
// truth.
func Corrupt(failures []Failure, spec FaultSpec) ([]byte, []FaultInjection, error) {
	return faultinject.CorruptFailures(failures, spec)
}

// CorruptDataset writes ds into dir and replaces its failures table with a
// corrupted copy, returning the injection ground truth.
func CorruptDataset(dir string, ds *Dataset, spec FaultSpec) ([]FaultInjection, error) {
	return faultinject.CorruptDataset(dir, ds, spec)
}

// Replay re-exports: the decade-scale trace replay harness (see
// internal/replay and cmd/hpcreplay).
type (
	// ReplaySchedule is a deterministic, lazily generated stream of mixed
	// HTTP operations derived from a dataset's post-split failures.
	ReplaySchedule = replay.Schedule
	// ReplayScheduleOptions configures NewReplaySchedule.
	ReplayScheduleOptions = replay.ScheduleOptions
	// ReplayMix weights the read routes of a replay workload.
	ReplayMix = replay.Mix
	// ReplayOp is one scheduled operation with its virtual send time.
	ReplayOp = replay.Op
	// ReplayReport is the hpcreplay output document with CO-corrected
	// per-route latency percentiles.
	ReplayReport = replay.Report
	// ReplayGateOptions tunes the replay SLO gate.
	ReplayGateOptions = replay.GateOptions
)

// NewReplaySchedule splits ds at the options' split point and prepares the
// lazy open-loop op stream.
func NewReplaySchedule(ds *Dataset, opts ReplayScheduleOptions) (*ReplaySchedule, error) {
	return replay.NewSchedule(ds, opts)
}

// GenerateReplayCatalog builds a named replay dataset (quick, small,
// standard, decade or mega) with an optional hazard multiplier.
func GenerateReplayCatalog(name string, seed int64, hazardMult float64) (*Dataset, error) {
	return replay.GenerateCatalog(name, seed, hazardMult)
}

// ReplayGate compares a replay report against a baseline and returns one
// violation string per breached SLO (empty = pass).
func ReplayGate(cur, base *ReplayReport, o ReplayGateOptions) []string {
	return replay.Gate(cur, base, o)
}
