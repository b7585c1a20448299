// Package validate defines the vocabulary of the robustness layer: how
// strictly a dataset is ingested (Mode), what kinds of problems can be found
// in one (Class), how a single finding is recorded (Diagnostic), how findings
// aggregate into a load report with a skip-rate (Report), and how much
// breakage a caller is willing to tolerate before a load aborts (Policy and
// its error budget).
//
// The package deliberately has no dependency on the trace schema: it is a
// leaf that both the codecs (internal/trace) and the importers
// (internal/lanl) build on, so every layer of the pipeline speaks the same
// diagnostic language. Real operator-entered failure logs — the LANL release
// the DSN'13 study runs on is a decade of them — are never perfectly clean,
// and a production ingestion path has to decide, explicitly, what to do with
// a garbled timestamp or a duplicated outage row instead of silently
// dropping it or aborting the whole analysis.
package validate

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Mode selects how ingestion reacts to broken records.
type Mode int

const (
	// Strict fails fast: the first problem aborts the load with an error.
	// Use it when the input is supposed to be machine-generated and any
	// deviation indicates a pipeline bug upstream.
	Strict Mode = iota
	// Lenient skips records it cannot parse or accept, recording one
	// diagnostic per skipped record, and keeps everything else.
	Lenient
	// Repair canonicalizes what it can — clamps out-of-range downtimes,
	// coerces near-miss timestamp layouts, merges exact duplicates,
	// resolves overlapping outages — and skips only what it cannot fix.
	Repair
)

// String names the mode as the CLI --strictness flag spells it.
func (m Mode) String() string {
	switch m {
	case Strict:
		return "strict"
	case Lenient:
		return "lenient"
	case Repair:
		return "repair"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode converts a --strictness flag value into a Mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "strict":
		return Strict, nil
	case "lenient":
		return Lenient, nil
	case "repair":
		return Repair, nil
	default:
		return 0, fmt.Errorf("unknown strictness %q (want strict, lenient or repair)", s)
	}
}

// Severity grades a diagnostic.
type Severity int

const (
	// Info marks findings that lose no data (a missing optional table, an
	// empty series).
	Info Severity = iota + 1
	// Warning marks findings that were repaired or scrubbed in place; the
	// record survived.
	Warning
	// Error marks findings that cost a record (skipped) or abort a strict
	// load.
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Class is the fault taxonomy of the robustness layer: every diagnostic is
// attributed to exactly one class, and the fault-injection harness
// (internal/faultinject) asserts that each injected fault surfaces under the
// class listed here.
type Class int

const (
	// BadRow: a structurally broken CSV row — wrong field count from
	// truncated or extra fields, or a CSV-level parse error.
	BadRow Class = iota + 1
	// BadField: a field that does not parse as its declared type (garbage
	// in a numeric column, an unknown category label).
	BadField
	// BadTimestamp: a timestamp that does not parse under the canonical
	// layout. Repair mode coerces near-miss layouts; other modes skip.
	BadTimestamp
	// TimestampOutOfRange: a parseable timestamp outside the plausible
	// observation epoch (Policy.MinTime..MaxTime).
	TimestampOutOfRange
	// NegativeDowntime: an outage with negative recorded downtime.
	NegativeDowntime
	// AbsurdDowntime: a downtime longer than Policy.AbsurdDowntime.
	AbsurdDowntime
	// DuplicateRecord: an exact duplicate of an earlier record.
	DuplicateRecord
	// OverlappingOutage: two outages of one node whose repair intervals
	// overlap (or start at the same instant) — physically impossible for a
	// single node.
	OverlappingOutage
	// UnknownSystem: a record referencing a system absent from the catalog.
	UnknownSystem
	// UnknownNode: a record referencing a node ID outside its system's
	// node range.
	UnknownNode
	// EncodingJunk: BOM or control bytes scrubbed from a field before
	// parsing.
	EncodingJunk
	// MissingTable: an optional dataset table absent from the directory;
	// the series degrades to empty.
	MissingTable
)

// Classes lists the fault taxonomy in declaration order.
var Classes = []Class{
	BadRow, BadField, BadTimestamp, TimestampOutOfRange,
	NegativeDowntime, AbsurdDowntime, DuplicateRecord, OverlappingOutage,
	UnknownSystem, UnknownNode, EncodingJunk, MissingTable,
}

// String returns the kebab-case label used in diagnostic output.
func (c Class) String() string {
	switch c {
	case BadRow:
		return "bad-row"
	case BadField:
		return "bad-field"
	case BadTimestamp:
		return "bad-timestamp"
	case TimestampOutOfRange:
		return "timestamp-out-of-range"
	case NegativeDowntime:
		return "negative-downtime"
	case AbsurdDowntime:
		return "absurd-downtime"
	case DuplicateRecord:
		return "duplicate-record"
	case OverlappingOutage:
		return "overlapping-outage"
	case UnknownSystem:
		return "unknown-system"
	case UnknownNode:
		return "unknown-node"
	case EncodingJunk:
		return "encoding-junk"
	case MissingTable:
		return "missing-table"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Diagnostic is one line-anchored finding.
type Diagnostic struct {
	// File is the table the finding is in ("failures.csv"); empty for
	// dataset-level findings.
	File string
	// Line is the 1-based line within File; 0 for dataset-level findings.
	Line int
	// Class attributes the finding to the fault taxonomy.
	Class Class
	// Severity grades the finding.
	Severity Severity
	// Msg describes the specific finding.
	Msg string
	// Repaired reports whether Repair mode fixed the record in place.
	Repaired bool
}

// String renders the diagnostic in file:line: [class] message form.
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.File != "" {
		b.WriteString(d.File)
		b.WriteByte(':')
	}
	if d.Line > 0 {
		fmt.Fprintf(&b, "%d:", d.Line)
	}
	if b.Len() > 0 {
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "[%s] %s", d.Class, d.Msg)
	if d.Repaired {
		b.WriteString(" (repaired)")
	}
	return b.String()
}

// TableStat tallies one table's scan.
type TableStat struct {
	// Records counts data records scanned (header rows excluded).
	Records int
	// Skipped counts records dropped.
	Skipped int
	// Repaired counts records fixed in place.
	Repaired int
}

// SkipRate returns the table's skipped fraction (0 when nothing scanned).
func (t TableStat) SkipRate() float64 {
	if t.Records == 0 {
		return 0
	}
	return float64(t.Skipped) / float64(t.Records)
}

// Report aggregates the diagnostics of one load. Record tallies are kept
// both overall and per table, because a huge clean table must not dilute
// the skip-rate of a badly broken one when the error budget is enforced.
type Report struct {
	// Diagnostics holds every finding in encounter order.
	Diagnostics []Diagnostic
	// Records counts the data records scanned (header rows excluded).
	Records int
	// Skipped counts records dropped.
	Skipped int
	// Repaired counts records fixed in place.
	Repaired int
	// Tables tallies records per table file.
	Tables map[string]*TableStat
}

func (r *Report) table(file string) *TableStat {
	if r.Tables == nil {
		r.Tables = make(map[string]*TableStat)
	}
	t := r.Tables[file]
	if t == nil {
		t = &TableStat{}
		r.Tables[file] = t
	}
	return t
}

// Scan counts n data records scanned in file.
func (r *Report) Scan(file string, n int) {
	r.Records += n
	if file != "" {
		r.table(file).Records += n
	}
}

// Skip counts one record of file as dropped.
func (r *Report) Skip(file string) {
	r.Skipped++
	if file != "" {
		r.table(file).Skipped++
	}
}

// Repair counts one record of file as fixed in place.
func (r *Report) Repair(file string) {
	r.Repaired++
	if file != "" {
		r.table(file).Repaired++
	}
}

// Add appends a diagnostic. Record tallies are explicit (Scan/Skip/Repair)
// so that a record with several findings is still counted once.
func (r *Report) Add(d Diagnostic) {
	r.Diagnostics = append(r.Diagnostics, d)
}

// Merge folds another report's findings and tallies into r.
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	r.Diagnostics = append(r.Diagnostics, o.Diagnostics...)
	r.Records += o.Records
	r.Skipped += o.Skipped
	r.Repaired += o.Repaired
	for file, t := range o.Tables {
		rt := r.table(file)
		rt.Records += t.Records
		rt.Skipped += t.Skipped
		rt.Repaired += t.Repaired
	}
}

// SkipRate returns the overall fraction of scanned records that were
// skipped (0 when nothing was scanned).
func (r *Report) SkipRate() float64 {
	if r.Records == 0 {
		return 0
	}
	return float64(r.Skipped) / float64(r.Records)
}

// WorstSkipRate returns the highest per-table skip rate (falling back to
// the overall rate when no per-table tallies exist). The error budget is
// enforced against this, so one broken table cannot hide behind clean ones.
func (r *Report) WorstSkipRate() (string, float64) {
	file, worst := "", r.SkipRate()
	for f, t := range r.Tables {
		if rate := t.SkipRate(); rate > worst {
			file, worst = f, rate
		}
	}
	return file, worst
}

// CountByClass tallies diagnostics per fault class.
func (r *Report) CountByClass() map[Class]int {
	out := make(map[Class]int)
	for _, d := range r.Diagnostics {
		out[d.Class]++
	}
	return out
}

// Has reports whether the report contains a diagnostic of class c anchored
// at file:line (file "" matches any file; line 0 matches any line).
func (r *Report) Has(class Class, file string, line int) bool {
	for _, d := range r.Diagnostics {
		if d.Class != class {
			continue
		}
		if file != "" && d.File != file {
			continue
		}
		if line != 0 && d.Line != line {
			continue
		}
		return true
	}
	return false
}

// Summary renders a short human-readable account: record/skip/repair
// counts, the per-class tally, and the first few diagnostics.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d records scanned, %d skipped (%.1f%%), %d repaired, %d diagnostics\n",
		r.Records, r.Skipped, 100*r.SkipRate(), r.Repaired, len(r.Diagnostics))
	counts := r.CountByClass()
	classes := make([]Class, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		fmt.Fprintf(&b, "  %-22s %d\n", c.String(), counts[c])
	}
	const maxShown = 5
	for i, d := range r.Diagnostics {
		if i >= maxShown {
			fmt.Fprintf(&b, "  ... and %d more\n", len(r.Diagnostics)-maxShown)
			break
		}
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// ErrBudgetExceeded is wrapped by errors returned when a load skips more
// than the policy's error budget allows.
var ErrBudgetExceeded = errors.New("validate: skip-rate exceeds error budget")

// Policy configures the validation/repair engine.
type Policy struct {
	// Mode selects strict, lenient or repair behavior.
	Mode Mode
	// MaxSkipRate is the error budget: the load aborts (with an error
	// wrapping ErrBudgetExceeded) when the fraction of skipped records
	// exceeds it. 1 disables the budget — a rate can never exceed 100%.
	MaxSkipRate float64
	// AbsurdDowntime is the longest downtime accepted as real; longer
	// downtimes are clamped (Repair) or skipped (Lenient).
	AbsurdDowntime time.Duration
	// MinTime and MaxTime bound the plausible observation epoch;
	// timestamps outside are TimestampOutOfRange.
	MinTime, MaxTime time.Time
}

// DefaultPolicy returns the lenient skip-and-report policy with a disabled
// error budget, a 90-day absurd-downtime threshold, and a 1980-2100
// plausible epoch.
func DefaultPolicy() Policy {
	return Policy{
		Mode:           Lenient,
		MaxSkipRate:    1,
		AbsurdDowntime: 90 * 24 * time.Hour,
		MinTime:        time.Date(1980, 1, 1, 0, 0, 0, 0, time.UTC),
		MaxTime:        time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC),
	}
}

// StrictPolicy returns the fail-fast policy.
func StrictPolicy() Policy {
	p := DefaultPolicy()
	p.Mode = Strict
	return p
}

// RepairPolicy returns the canonicalizing policy.
func RepairPolicy() Policy {
	p := DefaultPolicy()
	p.Mode = Repair
	return p
}

// InRange reports whether t falls inside the policy's plausible epoch.
// A zero bound is unbounded, so a zero-value Policy accepts every time.
func (p Policy) InRange(t time.Time) bool {
	if !p.MinTime.IsZero() && t.Before(p.MinTime) {
		return false
	}
	if !p.MaxTime.IsZero() && !t.Before(p.MaxTime) {
		return false
	}
	return true
}

// CheckBudget returns an error wrapping ErrBudgetExceeded when the report's
// worst per-table skip-rate exceeds the policy's budget, and nil otherwise.
func (p Policy) CheckBudget(r *Report) error {
	if r == nil {
		return nil
	}
	file, worst := r.WorstSkipRate()
	if worst <= p.MaxSkipRate {
		return nil
	}
	where := ""
	if file != "" {
		where = " in " + file
	}
	return fmt.Errorf("%w: %.1f%% of records skipped%s (budget %.1f%%; %d/%d skipped overall)",
		ErrBudgetExceeded, 100*worst, where, 100*p.MaxSkipRate, r.Skipped, r.Records)
}

// FallbackTimeLayouts are the near-miss timestamp layouts Repair mode tries
// after the canonical one: operators and spreadsheet round-trips produce a
// predictable family of variants.
var FallbackTimeLayouts = []string{
	time.RFC3339,
	"2006-01-02T15:04:05",
	"2006-01-02 15:04:05",
	"2006-01-02 15:04",
	"2006/01/02 15:04:05",
	"01/02/2006 15:04:05",
	"01/02/2006 15:04",
	"1/2/2006 15:04",
	"2006-01-02",
	time.RFC1123,
	time.UnixDate,
}

// CoerceTime parses s under the canonical layout first and the fallback
// family second, reporting whether a fallback (rather than the canonical
// layout) matched.
func CoerceTime(s, canonical string) (t time.Time, coerced bool, err error) {
	if t, err = time.Parse(canonical, s); err == nil {
		return t, false, nil
	}
	for _, l := range FallbackTimeLayouts {
		if l == canonical {
			continue
		}
		if t, perr := time.Parse(l, s); perr == nil {
			return t.UTC(), true, nil
		}
	}
	return time.Time{}, false, fmt.Errorf("unparseable timestamp %q", s)
}

// ScrubField strips a UTF-8 BOM and ASCII control characters from a field,
// reporting whether anything was removed. Invalid UTF-8 comes back as
// U+FFFD, which also counts as scrubbed.
func ScrubField(s string) (string, bool) {
	// Printable ASCII, the bulk of every table, has nothing to scrub.
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 && c != '\t' || c >= 0x7f {
			return scrub(s)
		}
	}
	return s, false
}

func scrub(s string) (string, bool) {
	const bom = "\uFEFF"
	clean := s
	for strings.Contains(clean, bom) {
		clean = strings.ReplaceAll(clean, bom, "")
	}
	clean = strings.Map(func(r rune) rune {
		if r < 0x20 && r != '\t' || r == 0x7f {
			return -1
		}
		return r
	}, clean)
	return clean, clean != s
}
