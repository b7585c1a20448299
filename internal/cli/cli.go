// Package cli is the shared runtime of the hpc* commands: the exit-code
// convention, panic recovery with a diagnostic dump, and the flags every
// ingesting command uses to pick a validation policy.
//
// Exit codes:
//
//	0  success (including -h/-help)
//	1  generic error
//	2  usage error (bad flags or arguments)
//	3  data error: the input exceeded the validation error budget
//	4  cancelled (SIGINT or a deadline)
//	5  internal panic (a bug; a stack dump is written to stderr)
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"

	"github.com/hpcfail/hpcfail/internal/validate"
)

// Exit codes of every hpc* command.
const (
	CodeOK       = 0
	CodeError    = 1
	CodeUsage    = 2
	CodeData     = 3
	CodeCanceled = 4
	CodePanic    = 5
)

// UsageError marks a command-line usage problem; Run exits with CodeUsage.
type UsageError struct{ Err error }

func (e UsageError) Error() string { return e.Err.Error() }
func (e UsageError) Unwrap() error { return e.Err }

// Usagef builds a UsageError.
func Usagef(format string, args ...any) error {
	return UsageError{Err: fmt.Errorf(format, args...)}
}

// CodeOf maps an error returned by a command body to its exit code.
func CodeOf(err error) int {
	var ue UsageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return CodeOK
	case errors.As(err, &ue):
		return CodeUsage
	case errors.Is(err, validate.ErrBudgetExceeded):
		return CodeData
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	default:
		return CodeError
	}
}

// Run executes a command body over args, recovering panics into a stack
// dump on stderr, and returns the exit code. Command tests call this (or
// the body directly); main wraps it via Main.
func Run(name string, args []string, run func([]string) error) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "%s: internal error: %v\n\n%s\n", name, r, debug.Stack())
			fmt.Fprintf(os.Stderr, "%s: this is a bug; please report it with the dump above\n", name)
			code = CodePanic
		}
	}()
	err := run(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return CodeOK
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	return CodeOf(err)
}

// Main is the body of every hpc* command's func main.
func Main(name string, run func([]string) error) {
	os.Exit(Run(name, os.Args[1:], run))
}

// Version renders the build's version line from the binary's embedded
// build info: module version when built from a tagged release, VCS
// revision and commit time when built from a checkout, plus the Go
// toolchain. A test binary with no build info reports "devel".
func Version(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s devel", name)
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b.String()
	}
	b.Reset()
	ver := info.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	fmt.Fprintf(&b, "%s %s", name, ver)
	var rev, modified, when string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		case "vcs.time":
			when = s.Value
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(&b, " (%s", rev)
		if modified == "true" {
			b.WriteString("+dirty")
		}
		if when != "" {
			fmt.Fprintf(&b, ", %s", when)
		}
		b.WriteString(")")
	}
	if info.GoVersion != "" {
		fmt.Fprintf(&b, " %s", info.GoVersion)
	}
	return b.String()
}

// VersionFlag registers -version on fs and returns a func for the command
// body to call after parsing: when the flag was given it prints the version
// line to stdout and reports true, telling the command to exit cleanly.
func VersionFlag(fs *flag.FlagSet, name string) func() bool {
	show := fs.Bool("version", false, "print version and exit")
	return func() bool {
		if !*show {
			return false
		}
		fmt.Println(Version(name))
		return true
	}
}

// PolicyFlags registers the -strictness and -max-skip-rate flags on fs
// (defaulting to the given mode and no budget) and returns a resolver that
// turns the parsed values into a validation policy.
func PolicyFlags(fs *flag.FlagSet, defaultMode string) func() (validate.Policy, error) {
	strictness := fs.String("strictness", defaultMode,
		"validation mode for corrupt input records: strict (abort), lenient (skip and report), or repair (canonicalize what is salvageable)")
	maxSkip := fs.Float64("max-skip-rate", 1,
		"error budget: fail when more than this fraction of any table's records is skipped (1 disables)")
	return func() (validate.Policy, error) {
		mode, err := validate.ParseMode(*strictness)
		if err != nil {
			return validate.Policy{}, UsageError{Err: err}
		}
		if *maxSkip < 0 || *maxSkip > 1 {
			return validate.Policy{}, Usagef("-max-skip-rate must be in [0,1], got %v", *maxSkip)
		}
		p := validate.DefaultPolicy()
		p.Mode = mode
		p.MaxSkipRate = *maxSkip
		return p, nil
	}
}

// ProfileFlags registers -cpuprofile and -memprofile on fs and returns a
// starter for the command body to call after parsing. The starter begins CPU
// profiling when requested and returns a stop func the body must run on every
// exit path (defer it): stop finishes the CPU profile and, when -memprofile
// was given, forces a GC and writes the heap profile. Without -memprofile the
// starter turns heap sampling off: linking the profile writer keeps it on,
// and on a server's allocation-heavy paths it costs throughput and resident
// memory.
func ProfileFlags(fs *flag.FlagSet) func() (func() error, error) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file on exit")
	return func() (func() error, error) {
		if *mem == "" {
			runtime.MemProfileRate = 0
		}
		var cpuFile *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			cpuFile = f
		}
		stopped := false
		return func() error {
			if stopped {
				return nil
			}
			stopped = true
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					return fmt.Errorf("cpuprofile: %w", err)
				}
			}
			if *mem != "" {
				f, err := os.Create(*mem)
				if err != nil {
					return fmt.Errorf("memprofile: %w", err)
				}
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					f.Close()
					return fmt.Errorf("memprofile: %w", err)
				}
				return f.Close()
			}
			return nil
		}, nil
	}
}

// PrintReport writes a human-readable issue summary of a validation report
// to stderr: the aggregate counts, the per-class tally, and the first few
// diagnostics.
func PrintReport(name string, rep *validate.Report, maxDiags int) {
	if rep == nil || len(rep.Diagnostics) == 0 {
		return
	}
	// Only the headline of Summary: the class tally and diagnostics are
	// rendered below with this function's own limits.
	head, _, _ := strings.Cut(rep.Summary(), "\n")
	fmt.Fprintf(os.Stderr, "%s: %s\n", name, head)
	counts := rep.CountByClass()
	for _, class := range validate.Classes {
		if n := counts[class]; n > 0 {
			fmt.Fprintf(os.Stderr, "  %4d x %s\n", n, class)
		}
	}
	for i, d := range rep.Diagnostics {
		if i >= maxDiags {
			fmt.Fprintf(os.Stderr, "  ... %d more diagnostics\n", len(rep.Diagnostics)-maxDiags)
			break
		}
		fmt.Fprintf(os.Stderr, "  %s\n", d)
	}
}
