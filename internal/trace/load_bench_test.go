package trace_test

import (
	"testing"

	"github.com/hpcfail/hpcfail/internal/simulate"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/validate"
)

// BenchmarkLoadDirWith times loading a generated dataset directory (seed 1,
// scale 0.1: every table, ~1.3 MB) under the strict and lenient policies,
// as the offline tools do; hpcserve boots lenient through LoadServedWith.
func BenchmarkLoadDirWith(b *testing.B) {
	ds, err := simulate.Generate(simulate.Options{Seed: 1, Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := trace.SaveDir(dir, ds); err != nil {
		b.Fatal(err)
	}
	for _, p := range []validate.Policy{validate.StrictPolicy(), validate.DefaultPolicy()} {
		b.Run(p.Mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := trace.LoadDirWith(dir, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
