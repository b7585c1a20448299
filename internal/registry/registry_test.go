package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeRes is a Resource that counts Close calls.
type fakeRes struct {
	name   string
	closed atomic.Int32
}

func (f *fakeRes) Close() error {
	f.closed.Add(1)
	return nil
}

func newTestRegistry(t *testing.T, root string) *Registry {
	t.Helper()
	r, err := New(Config{
		Root: root,
		Build: func(name, dir string, m Manifest) (Resource, error) {
			return &fakeRes{name: name}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCanonical(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"prod", "prod", true},
		{"PROD", "prod", true},
		{"Blue-Gene_2", "blue-gene_2", true},
		{"a", "a", true},
		{"0day", "0day", true},
		{"", "", false},
		{"-dash", "", false},
		{"_под", "", false},
		{"has space", "", false},
		{"dots.bad", "", false},
		{"slash/bad", "", false},
		{"shard-001", "", false},
		{"SHARD-7", "", false},
		{"sharded", "sharded", true},
		{"ab€", "", false},
		{"0123456789012345678901234567890123", "", false}, // 34 chars
	}
	for _, c := range cases {
		got, err := Canonical(c.in)
		if c.ok != (err == nil) {
			t.Errorf("Canonical(%q): err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if got != c.want {
			t.Errorf("Canonical(%q) = %q, want %q", c.in, got, c.want)
		}
		// Fixed point: re-canonicalizing an accepted name is a no-op.
		again, err := Canonical(got)
		if err != nil || again != got {
			t.Errorf("Canonical not a fixed point: %q -> %q -> %q (%v)", c.in, got, again, err)
		}
	}
}

func TestCreateAcquireRelease(t *testing.T) {
	r := newTestRegistry(t, "")
	tn, err := r.Create("Prod", Manifest{Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	if tn.Name() != "prod" {
		t.Fatalf("name = %q, want prod", tn.Name())
	}
	if _, err := r.Create("prod", Manifest{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}

	if _, _, err := r.Acquire("prod", "wrong"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong token: %v, want ErrUnauthorized", err)
	}
	if _, _, err := r.Acquire("prod", ""); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("missing token: %v, want ErrUnauthorized", err)
	}
	if _, _, err := r.Acquire("nope", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown name: %v, want ErrNotFound", err)
	}
	got, release, err := r.Acquire("prod", "s3cret")
	if err != nil {
		t.Fatal(err)
	}
	if got != tn {
		t.Fatal("Acquire returned a different tenant")
	}
	release()
	release() // idempotent

	// Tokenless tenants are open to all callers.
	if _, err := r.Create("open", Manifest{}); err != nil {
		t.Fatal(err)
	}
	_, release2, err := r.Acquire("open", "anything")
	if err != nil {
		t.Fatalf("tokenless acquire: %v", err)
	}
	release2()
}

func TestManifestRoundTripOpenAll(t *testing.T) {
	root := t.TempDir()
	r := newTestRegistry(t, root)
	spec := json.RawMessage(`{"seed":7,"scale":0.1}`)
	if _, err := r.Create("alpha", Manifest{Token: "t", Quota: Quota{MaxEvents: 99}, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	// Simulate shard WAL dirs and stray files sharing the root: OpenAll
	// must skip them.
	if err := os.MkdirAll(filepath.Join(root, "alpha", "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "000001.seg"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}

	var built []string
	r2, err := New(Config{
		Root: root,
		Build: func(name, dir string, m Manifest) (Resource, error) {
			built = append(built, name)
			var gotSpec, wantSpec bytes.Buffer
			json.Compact(&gotSpec, m.Spec)
			json.Compact(&wantSpec, spec)
			if m.Token != "t" || m.Quota.MaxEvents != 99 || gotSpec.String() != wantSpec.String() {
				t.Errorf("manifest did not round-trip: %+v", m)
			}
			if dir != filepath.Join(root, "alpha") {
				t.Errorf("dir = %q", dir)
			}
			return &fakeRes{name: name}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.OpenAll(); err != nil {
		t.Fatal(err)
	}
	if len(built) != 1 || built[0] != "alpha" {
		t.Fatalf("rebuilt %v, want [alpha]", built)
	}
	if names := r2.Names(); len(names) != 1 || names[0] != "alpha" {
		t.Fatalf("Names = %v", names)
	}
}

// TestOpenAllSweepsManifestTemps: a crash inside writeManifest strands a
// .tenant-* temp, beside the old manifest or, mid-Create, beside none.
// OpenAll removes both kinds before reading manifests, leaves other files
// alone, and rebuilds only the tenant whose manifest committed.
func TestOpenAllSweepsManifestTemps(t *testing.T) {
	root := t.TempDir()
	if _, err := newTestRegistry(t, root).Create("alpha", Manifest{}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "beta"), 0o755); err != nil {
		t.Fatal(err)
	}
	temps := []string{filepath.Join(root, "alpha", ".tenant-123"), filepath.Join(root, "beta", ".tenant-456")}
	kept := filepath.Join(root, "beta", "notes.txt")
	for _, path := range append(temps, kept) {
		if err := os.WriteFile(path, []byte(`{"name":"beta"}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := newTestRegistry(t, root)
	if err := r.OpenAll(); err != nil {
		t.Fatal(err)
	}
	for _, path := range temps {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived OpenAll: %v", path, err)
		}
	}
	if _, err := os.Stat(kept); err != nil {
		t.Errorf("OpenAll removed %s: %v", kept, err)
	}
	if names := r.Names(); len(names) != 1 || names[0] != "alpha" {
		t.Fatalf("Names = %v, want [alpha]", names)
	}
}

func TestDrainWaitsForRelease(t *testing.T) {
	r := newTestRegistry(t, "")
	if _, err := r.Create("d", Manifest{}); err != nil {
		t.Fatal(err)
	}
	_, release, err := r.Acquire("d", "")
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- r.Drain(context.Background(), "d") }()

	// New acquisitions are rejected once draining begins.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, rel, err := r.Acquire("d", "")
		if errors.Is(err, ErrDraining) {
			break
		}
		if err == nil {
			rel() // drain goroutine not scheduled yet
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned before release: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not return after release")
	}

	// Drain with a dead context while pinned reports the context error.
	r2 := newTestRegistry(t, "")
	if _, err := r2.Create("d", Manifest{}); err != nil {
		t.Fatal(err)
	}
	_, release2, _ := r2.Acquire("d", "")
	defer release2()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r2.Drain(ctx, "d"); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with canceled ctx: %v", err)
	}
}

func TestDeleteRemovesDir(t *testing.T) {
	root := t.TempDir()
	r := newTestRegistry(t, root)
	tn, err := r.Create("gone", Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	res := tn.Resource().(*fakeRes)
	dir := tn.Dir()
	if _, err := os.Stat(filepath.Join(dir, "tenant.json")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(context.Background(), "gone"); err != nil {
		t.Fatal(err)
	}
	if res.closed.Load() != 1 {
		t.Fatalf("resource closed %d times, want 1", res.closed.Load())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("dir still present: %v", err)
	}
	if _, err := r.Get("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	// The name is free again.
	if _, err := r.Create("gone", Manifest{}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	r := newTestRegistry(t, "")
	tn, err := r.Create("c", Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	res := tn.Resource().(*fakeRes)
	if err := r.Close("c"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close("c"); err != nil {
		t.Fatal(err)
	}
	if res.closed.Load() != 1 {
		t.Fatalf("resource closed %d times, want 1", res.closed.Load())
	}
	if tn.State() != StateClosed {
		t.Fatalf("state = %v", tn.State())
	}
}

// TestConcurrentLifecycle hammers create/acquire/drain/close/delete from
// many goroutines; run under -race it is the registry's memory model
// check.
func TestConcurrentLifecycle(t *testing.T) {
	root := t.TempDir()
	r := newTestRegistry(t, root)
	const tenants = 8
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Create(name, Manifest{}); err != nil {
				t.Error(err)
				return
			}
			var inner sync.WaitGroup
			for j := 0; j < 4; j++ {
				inner.Add(1)
				go func() {
					defer inner.Done()
					for k := 0; k < 50; k++ {
						_, release, err := r.AcquireAny(name)
						if err != nil {
							return // draining already
						}
						_ = r.Names()
						release()
					}
				}()
			}
			inner.Wait()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if i%2 == 0 {
				if err := r.Delete(ctx, name); err != nil {
					t.Error(err)
				}
			} else {
				if err := r.Drain(ctx, name); err != nil {
					t.Error(err)
				}
				if err := r.Close(name); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for _, tn := range r.All() {
		if tn.State() != StateClosed {
			t.Errorf("tenant %s state %v after close", tn.Name(), tn.State())
		}
	}
}
