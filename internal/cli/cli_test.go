package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/hpcfail/hpcfail/internal/validate"
)

func TestCodeOf(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, CodeOK},
		{flag.ErrHelp, CodeOK},
		{Usagef("bad flag"), CodeUsage},
		{fmt.Errorf("wrapped: %w", UsageError{Err: errors.New("x")}), CodeUsage},
		{fmt.Errorf("load: %w", validate.ErrBudgetExceeded), CodeData},
		{context.Canceled, CodeCanceled},
		{fmt.Errorf("sweep: %w", context.DeadlineExceeded), CodeCanceled},
		{errors.New("anything else"), CodeError},
	}
	for _, c := range cases {
		if got := CodeOf(c.err); got != c.want {
			t.Errorf("CodeOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestRunRecoversPanics(t *testing.T) {
	code := Run("boom", nil, func([]string) error { panic("kaboom") })
	if code != CodePanic {
		t.Errorf("panicking command exited %d, want %d", code, CodePanic)
	}
	code = Run("nilmap", nil, func([]string) error {
		var m map[string]int
		m["x"] = 1 // runtime panic, not an explicit one
		return nil
	})
	if code != CodePanic {
		t.Errorf("runtime panic exited %d, want %d", code, CodePanic)
	}
}

func TestRunMapsErrors(t *testing.T) {
	if code := Run("ok", nil, func([]string) error { return nil }); code != CodeOK {
		t.Errorf("nil error exited %d", code)
	}
	if code := Run("usage", nil, func([]string) error { return Usagef("no args") }); code != CodeUsage {
		t.Errorf("usage error exited %d", code)
	}
	if code := Run("budget", nil, func([]string) error {
		return fmt.Errorf("import: %w", validate.ErrBudgetExceeded)
	}); code != CodeData {
		t.Errorf("budget error exited %d", code)
	}
}

func TestPolicyFlags(t *testing.T) {
	newFS := func() (*flag.FlagSet, func() (validate.Policy, error)) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return fs, PolicyFlags(fs, "lenient")
	}

	fs, policy := newFS()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	p, err := policy()
	if err != nil || p.Mode != validate.Lenient || p.MaxSkipRate != 1 {
		t.Errorf("defaults: %+v, %v", p, err)
	}

	fs, policy = newFS()
	if err := fs.Parse([]string{"-strictness", "repair", "-max-skip-rate", "0.05"}); err != nil {
		t.Fatal(err)
	}
	p, err = policy()
	if err != nil || p.Mode != validate.Repair || p.MaxSkipRate != 0.05 {
		t.Errorf("overrides: %+v, %v", p, err)
	}

	fs, policy = newFS()
	if err := fs.Parse([]string{"-strictness", "yolo"}); err != nil {
		t.Fatal(err)
	}
	if _, err := policy(); CodeOf(err) != CodeUsage {
		t.Errorf("bad mode should be a usage error, got %v", err)
	}

	fs, policy = newFS()
	if err := fs.Parse([]string{"-max-skip-rate", "1.5"}); err != nil {
		t.Fatal(err)
	}
	if _, err := policy(); CodeOf(err) != CodeUsage {
		t.Errorf("out-of-range budget should be a usage error, got %v", err)
	}
}

func TestVersion(t *testing.T) {
	got := Version("hpctool")
	if !strings.HasPrefix(got, "hpctool ") {
		t.Errorf("Version = %q, want the tool name first", got)
	}
	if strings.Count(got, "\n") != 0 {
		t.Errorf("Version = %q, want a single line", got)
	}
}

func TestVersionFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	show := VersionFlag(fs, "hpctool")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if show() {
		t.Error("version reported without -version")
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	show = VersionFlag(fs, "hpctool")
	if err := fs.Parse([]string{"-version"}); err != nil {
		t.Fatal(err)
	}
	// Capture stdout so the version line does not leak into test output.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	shown := show()
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if !shown {
		t.Error("-version not reported")
	}
	if !strings.HasPrefix(string(out), "hpctool ") {
		t.Errorf("printed %q, want the version line", out)
	}
}

func TestPrintReportNilSafe(t *testing.T) {
	PrintReport("t", nil, 5) // must not panic
	PrintReport("t", &validate.Report{}, 5)
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	profileOf := ProfileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := profileOf()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to write.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("second stop must be a no-op, got %v", err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s: empty profile", p)
		}
	}
}

func TestProfileFlagsOff(t *testing.T) {
	rate := runtime.MemProfileRate
	t.Cleanup(func() { runtime.MemProfileRate = rate })
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	profileOf := ProfileFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := profileOf()
	if err != nil {
		t.Fatal(err)
	}
	// Without -memprofile nothing reads heap samples, so none are taken.
	if runtime.MemProfileRate != 0 {
		t.Errorf("MemProfileRate = %d without -memprofile, want 0", runtime.MemProfileRate)
	}
	if err := stop(); err != nil {
		t.Errorf("stop with no profiles requested = %v", err)
	}
}
