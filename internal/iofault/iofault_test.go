package iofault

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// writeFile creates name on fsys with the given content, unsynced.
func writeFile(t *testing.T, fsys FS, name string, data []byte) File {
	t.Helper()
	f, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	return f
}

func TestMemFSDurabilityNeedsSync(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}

	// Synced file + synced dir entry: survives.
	f := writeFile(t, m, "/d/synced", []byte("hello"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := m.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}

	// Written but never synced: content gone after reboot (entry durable —
	// SyncDir above flushed the creation, the later write is not).
	g := writeFile(t, m, "/d/dirty", []byte("doomed"))
	if err := m.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte(" more")); err != nil {
		t.Fatal(err)
	}

	// Created but entry never synced: file gone entirely.
	writeFile(t, m, "/d/orphan", []byte("gone")).Sync()

	m.Reboot(TearNone)

	if data, err := m.ReadFile("/d/synced"); err != nil || string(data) != "hello" {
		t.Fatalf("synced file: %q, %v", data, err)
	}
	if data, err := m.ReadFile("/d/dirty"); err != nil || len(data) != 0 {
		t.Fatalf("dirty file should be durable-but-empty: %q, %v", data, err)
	}
	if _, err := m.ReadFile("/d/orphan"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan should not survive: %v", err)
	}
}

func TestMemFSEagerDirSync(t *testing.T) {
	m := NewMemFS()
	m.EagerDirSync(true)
	if err := m.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	f := writeFile(t, m, "/d/a", []byte("x"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Reboot(TearNone)
	if data, err := m.ReadFile("/d/a"); err != nil || string(data) != "x" {
		t.Fatalf("eager entry should survive without SyncDir: %q, %v", data, err)
	}
}

func TestMemFSRenamePendingUntilSyncDir(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	f := writeFile(t, m, "/d/tmp", []byte("v2"))
	f.Sync()
	f.Close()
	if err := m.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("/d/tmp", "/d/final"); err != nil {
		t.Fatal(err)
	}
	// Visible immediately...
	if _, err := m.ReadFile("/d/final"); err != nil {
		t.Fatalf("rename not visible: %v", err)
	}
	// ...but without SyncDir the crash rolls it back.
	m.Reboot(TearNone)
	if _, err := m.ReadFile("/d/final"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unsynced rename should not survive: %v", err)
	}
	if data, err := m.ReadFile("/d/tmp"); err != nil || string(data) != "v2" {
		t.Fatalf("old name should survive: %q, %v", data, err)
	}
}

func TestMemFSFsyncgate(t *testing.T) {
	m := NewMemFS()
	m.EagerDirSync(true)
	if err := m.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	f := writeFile(t, m, "/d/log", []byte("acked"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-dropped")); err != nil {
		t.Fatal(err)
	}
	m.FailNextSync(&os.PathError{Op: "sync", Path: "/d/log", Err: syscall.EIO})
	if err := f.Sync(); err == nil {
		t.Fatal("armed sync should fail")
	}
	// The retried fsync lies: it reports success...
	if err := f.Sync(); err != nil {
		t.Fatalf("retried sync should report success: %v", err)
	}
	m.Reboot(TearNone)
	// ...but the dropped range never reached stable storage.
	data, err := m.ReadFile("/d/log")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("acked"), make([]byte, len("-dropped"))...)
	if !bytes.Equal(data, want) {
		t.Fatalf("durable image = %q, want acked prefix + zero gap %q", data, want)
	}
}

func TestMemFSCrashAfter(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	// Dry run: create+write+sync+syncdir.
	run := func(fs *MemFS) error {
		f, err := fs.OpenFile("/d/f", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("x")); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		f.Close()
		return fs.SyncDir("/d")
	}
	m.CrashAfter(0)
	if err := run(m); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	total := m.Ops()
	if total < 4 {
		t.Fatalf("expected >=4 ops, got %d", total)
	}
	for n := 1; n < total; n++ {
		m2 := NewMemFS()
		if err := m2.MkdirAll("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		m2.CrashAfter(n)
		err := run(m2)
		if err == nil {
			t.Fatalf("crashAfter(%d): schedule of %d ops should have crashed mid-way", n, total)
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crashAfter(%d): got %v, want ErrCrashed", n, err)
		}
		if !m2.Crashed() {
			t.Fatalf("crashAfter(%d): Crashed() false after ErrCrashed", n)
		}
		// Everything keeps failing until reboot.
		if _, err := m2.ReadFile("/d/f"); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crashAfter(%d): reads should fail post-crash: %v", n, err)
		}
		m2.Reboot(TearNone)
		if m2.Crashed() {
			t.Fatal("reboot should clear the crashed state")
		}
	}
}

func TestMemFSTearModes(t *testing.T) {
	build := func(tear TearMode) []byte {
		m := NewMemFS()
		m.EagerDirSync(true)
		m.MkdirAll("/d", 0o755)
		f := writeFile(t, m, "/d/f", []byte("durable!"))
		f.Sync()
		f.Write([]byte("inflight")) // dirty tail at "crash"
		m.Reboot(tear)
		data, err := m.ReadFile("/d/f")
		if err != nil {
			t.Fatalf("tear %d: %v", tear, err)
		}
		return data
	}
	none := build(TearNone)
	if string(none) != "durable!" {
		t.Fatalf("TearNone: %q", none)
	}
	partial := build(TearPartial)
	if string(partial) != "durable!infl" {
		t.Fatalf("TearPartial: %q, want durable prefix + half the dirty tail", partial)
	}
	flipped := build(TearBitFlip)
	if len(flipped) != len(partial) || bytes.Equal(flipped, partial) {
		t.Fatalf("TearBitFlip: %q should differ from %q by one bit", flipped, partial)
	}
}

func TestInjectDiskFullStickyAndClearFile(t *testing.T) {
	dir := t.TempDir()
	clear := filepath.Join(dir, "space-freed")
	in := NewInject(Disk, InjectSpec{MaxWriteBytes: 10, ClearFile: clear})

	f, err := in.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("12345678")); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	_, err = f.Write([]byte("overflow"))
	if !IsDiskFull(err) {
		t.Fatalf("over budget: got %v, want ENOSPC", err)
	}
	if !in.DiskFull() {
		t.Fatal("disk-full should be sticky")
	}
	if _, err := f.Write([]byte("x")); !IsDiskFull(err) {
		t.Fatalf("sticky: got %v", err)
	}
	if _, err := in.CreateTemp(dir, "t-*"); !IsDiskFull(err) {
		t.Fatalf("createtemp while full: got %v", err)
	}
	// Freeing space (creating the clear file on the base FS) recovers.
	if err := os.WriteFile(clear, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("again")); err != nil {
		t.Fatalf("after clear: %v", err)
	}
	f.Close()
}

func TestInjectOneShotFaults(t *testing.T) {
	dir := t.TempDir()
	in := NewInject(Disk, InjectSpec{})
	f, err := in.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	in.FailNextWrite(&os.PathError{Op: "write", Path: "f", Err: syscall.EIO})
	if _, err := f.Write([]byte("abc")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("armed write: %v", err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatalf("one-shot should clear: %v", err)
	}
	in.ShortNextWrite(2)
	n, err := f.Write([]byte("wxyz"))
	if n != 2 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	in.FailNextSync(syscall.EIO)
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("armed sync: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after one-shot: %v", err)
	}
	f.Close()
	// Only the acknowledged bytes are on disk: 3 + 2 = 5.
	data, err := os.ReadFile(filepath.Join(dir, "f"))
	if err != nil || string(data) != "abcwx" {
		t.Fatalf("on-disk = %q, %v", data, err)
	}
}

func TestMemFSSeekAndReadDir(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("/d", 0o755)
	f := writeFile(t, m, "/d/b", []byte("0123456789"))
	f.Close()
	writeFile(t, m, "/d/a", nil).Close()

	r, err := Open(m, "/d/b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := io.ReadFull(r, buf); err != nil || string(buf) != "456" {
		t.Fatalf("seek+read: %q, %v", buf, err)
	}
	r.Close()

	ents, err := m.ReadDir("/d")
	if err != nil || len(ents) != 2 || ents[0].Name() != "a" || ents[1].Name() != "b" {
		t.Fatalf("readdir: %v, %v", ents, err)
	}
	if _, err := m.OpenFile("/d/a", os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); !errors.Is(err, os.ErrExist) {
		t.Fatalf("O_EXCL on existing: %v", err)
	}
}

// TestWriteFileAtomicCrashPoints crashes WriteFileAtomic after every
// mutating operation, under every tear mode: after the reboot the file
// holds its old contents or its new ones, never a mix, a tear or nothing,
// and once the call has returned the new contents are durable. A failed
// step leaves no temp file behind.
func TestWriteFileAtomicCrashPoints(t *testing.T) {
	old, next := []byte("old manifest"), []byte("the new, longer manifest")
	fresh := func() *MemFS {
		m := NewMemFS()
		if err := m.MkdirAll("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(m, "/d/f", ".f-*", old); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := fresh()
	m.CrashAfter(0)
	if err := WriteFileAtomic(m, "/d/f", ".f-*", next); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	total := m.Ops()
	m.Reboot(TearNone)
	if data, err := m.ReadFile("/d/f"); err != nil || !bytes.Equal(data, next) {
		t.Fatalf("after a completed write and a power loss: %q, %v", data, err)
	}
	for n := 1; n < total; n++ {
		for _, tear := range []TearMode{TearNone, TearPartial, TearBitFlip} {
			m := fresh()
			m.CrashAfter(n)
			if err := WriteFileAtomic(m, "/d/f", ".f-*", next); !errors.Is(err, ErrCrashed) {
				t.Fatalf("crash after %d of %d ops: %v, want ErrCrashed", n, total, err)
			}
			m.Reboot(tear)
			if data, err := m.ReadFile("/d/f"); err != nil || !bytes.Equal(data, old) && !bytes.Equal(data, next) {
				t.Errorf("crash after %d of %d ops, tear %d: %q, %v", n, total, tear, data, err)
			}
		}
	}

	m = fresh()
	m.FailNextSync(syscall.EIO)
	if err := WriteFileAtomic(m, "/d/f", ".f-*", next); !errors.Is(err, syscall.EIO) {
		t.Fatalf("failed fsync: %v, want EIO", err)
	}
	entries, err := m.ReadDir("/d")
	if err != nil || len(entries) != 1 || entries[0].Name() != "f" {
		t.Fatalf("after a failed fsync /d holds %v (%v), want only f", entries, err)
	}
	if data, _ := m.ReadFile("/d/f"); !bytes.Equal(data, old) {
		t.Fatalf("after a failed fsync f = %q, want the old contents", data)
	}
}

// TestSweepTempsAfterCrashPoints: whichever operation of WriteFileAtomic a
// crash lands after, SweepTemps at the next boot leaves the directory
// holding the target alone — old or new, never a stranded temp — and
// touches nothing that does not match its pattern. Directory entries are
// durable at once in one pass, as on file systems that journal them
// eagerly; that is where a temp outlives the crash.
func TestSweepTempsAfterCrashPoints(t *testing.T) {
	if n, err := SweepTemps(NewMemFS(), "/missing", ".f-*"); n != 0 || err != nil {
		t.Fatalf("sweeping a missing directory = %d, %v", n, err)
	}
	stranded := 0
	for _, eager := range []bool{false, true} {
		for n := 1; ; n++ {
			m := NewMemFS()
			m.EagerDirSync(eager)
			if err := m.MkdirAll("/d/.f-dir", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := WriteFileAtomic(m, "/d/f", ".f-*", []byte("old")); err != nil {
				t.Fatal(err)
			}
			m.CrashAfter(n)
			if err := WriteFileAtomic(m, "/d/f", ".f-*", []byte("new")); !errors.Is(err, ErrCrashed) {
				break // n is past the last operation
			}
			m.Reboot(TearNone)
			removed, err := SweepTemps(m, "/d", ".f-*")
			if err != nil {
				t.Fatalf("eager %v, crash after %d ops: sweep: %v", eager, n, err)
			}
			stranded += removed
			entries, err := m.ReadDir("/d")
			if err != nil || len(entries) != 2 || entries[0].Name() != ".f-dir" || entries[1].Name() != "f" {
				t.Fatalf("eager %v, crash after %d ops: /d holds %v (%v), want .f-dir and f", eager, n, entries, err)
			}
		}
	}
	if stranded == 0 {
		t.Fatal("no crash point stranded a temp; the sweep removed nothing")
	}
}
