package wal

import (
	"errors"
	"fmt"
	"os"
	"syscall"
	"testing"

	"github.com/hpcfail/hpcfail/internal/iofault"
)

// openMem opens a log over a fresh MemFS with eager directory entries (the
// fault under test is file-content durability, not entry durability).
func openMem(t *testing.T, opts Options) (*iofault.MemFS, *Log) {
	t.Helper()
	m := iofault.NewMemFS()
	m.EagerDirSync(true)
	opts.Dir = "/wal"
	opts.FS = m
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m, l
}

// recoverPayloads reopens the log and returns every surviving payload.
func recoverPayloads(t *testing.T, fsys iofault.FS) []string {
	t.Helper()
	l, err := Open(Options{Dir: "/wal", FS: fsys})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	return replayAll(t, l, 0)
}

// TestFsyncGatePoisonsLog is the satellite-1 regression: a failed fsync
// must poison the log — every later Append and Sync returns the sticky
// error — because the kernel may have dropped the dirty pages and a
// retried fsync would report success without persisting them.
func TestFsyncGatePoisonsLog(t *testing.T) {
	m, l := openMem(t, Options{Policy: SyncAlways})
	if _, err := l.Append([]byte("acked-0")); err != nil {
		t.Fatalf("append 0: %v", err)
	}

	m.FailNextSync(&os.PathError{Op: "sync", Path: "wal", Err: syscall.EIO})
	if _, err := l.Append([]byte("dropped-1")); err == nil {
		t.Fatal("append over failed fsync should error")
	}
	// Sticky: the MemFS would now let a sync "succeed" (the fsyncgate lie);
	// the log must refuse to act on it.
	if _, err := l.Append([]byte("refused-2")); err == nil || !errors.Is(err, l.Err()) {
		t.Fatalf("poisoned append: got %v, want sticky %v", err, l.Err())
	}
	if err := l.Sync(); !errors.Is(err, l.Err()) {
		t.Fatalf("poisoned sync: got %v, want sticky error", err)
	}
	if err := l.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("poisoned close should surface the poison: %v", err)
	}

	// Crash + recover: only the acknowledged record survives; the record
	// whose fsync failed is a zero gap the frame check rejects.
	m.Reboot(iofault.TearNone)
	if got := recoverPayloads(t, m); len(got) != 1 || got[0] != "acked-0" {
		t.Fatalf("recovered %q, want exactly the acked record", got)
	}
}

// TestAppendENOSPCRollsBackAndRecovers: a failed frame write (disk full)
// must roll the segment back to the last record boundary and stay
// retryable — once space returns the log keeps working, and recovery sees
// a contiguous record sequence.
func TestAppendENOSPCRollsBackAndRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInject(iofault.Disk, iofault.InjectSpec{})
	l, err := Open(Options{Dir: dir, Policy: SyncAlways, FS: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	inj.SetDiskFull(true)
	if _, err := l.Append([]byte("b")); !iofault.IsDiskFull(err) {
		t.Fatalf("append on full disk: got %v, want ENOSPC", err)
	}
	if l.Err() != nil {
		t.Fatalf("ENOSPC must not poison: %v", l.Err())
	}
	inj.SetDiskFull(false)
	idx, err := l.Append([]byte("c"))
	if err != nil {
		t.Fatalf("append after space returned: %v", err)
	}
	if idx != 1 {
		t.Fatalf("failed append must not consume an index: got %d, want 1", idx)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got := replayAll(t, l2, 0)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("recovered %q, want [a c]", got)
	}
}

// TestAppendShortWriteRollsBack: a short write leaves a partial frame; the
// rollback truncates it so the segment ends on a record boundary and later
// appends produce a cleanly replayable log.
func TestAppendShortWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInject(iofault.Disk, iofault.InjectSpec{})
	l, err := Open(Options{Dir: dir, Policy: SyncAlways, FS: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	inj.ShortNextWrite(5)
	if _, err := l.Append([]byte("torn-record")); err == nil {
		t.Fatal("short write should error")
	}
	if _, err := l.Append([]byte("second")); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got := replayAll(t, l2, 0)
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("recovered %q, want [first second]", got)
	}
}

// TestRotateENOSPCReattachesTail: disk full exactly at the rotation
// boundary (creating the next segment fails) must not brick the log — the
// sealed tail segment is reattached, the append reports the failure, and
// once space returns the rotation retries and succeeds.
func TestRotateENOSPCReattachesTail(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInject(iofault.Disk, iofault.InjectSpec{})
	l, err := Open(Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 64, FS: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Fill past the segment bound so the next append must rotate.
	var appended []string
	for i := 0; l.fSize < 64; i++ {
		p := fmt.Sprintf("rec-%02d", i)
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, p)
	}
	inj.SetDiskFull(true)
	if _, err := l.Append([]byte("blocked")); !iofault.IsDiskFull(err) {
		t.Fatalf("rotation on full disk: got %v, want ENOSPC", err)
	}
	if l.Err() != nil {
		t.Fatalf("rotation ENOSPC must not poison: %v", l.Err())
	}
	inj.SetDiskFull(false)
	if _, err := l.Append([]byte("after")); err != nil {
		t.Fatalf("append after space returned: %v", err)
	}
	appended = append(appended, "after")
	if l.Segments() != 2 {
		t.Fatalf("segments = %d, want 2 (rotation retried)", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got := replayAll(t, l2, 0)
	if len(got) != len(appended) {
		t.Fatalf("recovered %d records, want %d", len(got), len(appended))
	}
	for i := range got {
		if got[i] != appended[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], appended[i])
		}
	}
}

// TestLogOverMemFSEndToEnd drives the normal append/rotate/compact cycle
// entirely over the MemFS to prove the durability model and the log agree:
// after a clean Close, a reboot loses nothing.
func TestLogOverMemFSEndToEnd(t *testing.T) {
	m, l := openMem(t, Options{Policy: SyncAlways, SegmentBytes: 64})
	var want []string
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("record-%03d", i)
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, p)
	}
	if l.Segments() < 2 {
		t.Fatalf("expected rotations, got %d segments", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	m.Reboot(iofault.TearNone)
	if got := recoverPayloads(t, m); len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
}

// readFailFS fails every read of a segment once the handle has read more
// than after bytes, as a disk returning EIO mid-file would.
type readFailFS struct {
	iofault.FS
	after int
}

type readFailFile struct {
	iofault.File
	left int
}

func (r readFailFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &readFailFile{File: f, left: r.after}, nil
}

func (f *readFailFile) Read(p []byte) (int, error) {
	if f.left -= len(p); f.left < 0 {
		return 0, &os.PathError{Op: "read", Path: f.Name(), Err: syscall.EIO}
	}
	return f.File.Read(p)
}

// TestOpenReadErrorKeepsLog: a read that fails says nothing about what the
// segment holds, so it is an error for Open, never a torn tail to truncate
// away with the acknowledged records behind it.
func TestOpenReadErrorKeepsLog(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir})
	appendN(t, l, 0, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(Options{Dir: dir, FS: readFailFS{FS: iofault.Disk, after: 200}}); err == nil {
		l.Close()
		t.Error("Open read through an I/O error without reporting it")
	} else if !errors.Is(err, syscall.EIO) {
		t.Errorf("Open error %v, want EIO", err)
	}
	l = open(t, Options{Dir: dir})
	defer l.Close()
	if l.Count() != 20 {
		t.Fatalf("after an I/O error during Open the log holds %d records, want 20", l.Count())
	}
}
