package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcfail/hpcfail/internal/iofault"
)

func open(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		idx, err := l.Append([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		if idx != uint64(i) {
			t.Fatalf("Append(%d) index = %d", i, idx)
		}
	}
}

// replayAll reads every record of l's directory from index from on
// through a follower, the log's one record reader.
func replayAll(t *testing.T, l *Log, from uint64) []string {
	t.Helper()
	f, err := OpenFollowerFS(l.fs, l.dir)
	if err != nil {
		t.Fatalf("OpenFollowerFS: %v", err)
	}
	if from > f.Position() {
		f.Seek(from)
	}
	var got []string
	_, err = f.Next(0, func(idx uint64, payload []byte) error {
		if want := uint64(len(got)) + from; idx != want {
			t.Fatalf("replay index %d, want %d", idx, want)
		}
		got = append(got, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("follower Next: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir})
	appendN(t, l, 0, 25)
	if l.Count() != 25 {
		t.Fatalf("Count = %d, want 25", l.Count())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = open(t, Options{Dir: dir})
	if l.Count() != 25 {
		t.Fatalf("reopened Count = %d, want 25", l.Count())
	}
	got := replayAll(t, l, 0)
	if len(got) != 25 || got[0] != "record-0000" || got[24] != "record-0024" {
		t.Fatalf("replay = %d records, first %q last %q", len(got), got[0], got[len(got)-1])
	}
	// Appending after reopen continues the index space.
	appendN(t, l, 25, 5)
	if got := replayAll(t, l, 27); len(got) != 3 || got[0] != "record-0027" {
		t.Fatalf("partial replay = %v", got)
	}
	l.Close()
}

func TestSegmentRotationAndCompact(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	l := open(t, Options{Dir: dir, SegmentBytes: 128})
	appendN(t, l, 0, 40)
	if l.Segments() < 3 {
		t.Fatalf("Segments = %d, want several with 128-byte bound", l.Segments())
	}
	got := replayAll(t, l, 0)
	if len(got) != 40 {
		t.Fatalf("replay over segments = %d records, want 40", len(got))
	}

	// Compaction drops whole covered segments but keeps the newest, and
	// replay from the covered index still sees everything after it.
	if err := l.Compact(30); err != nil {
		t.Fatal(err)
	}
	if l.Segments() >= 5 {
		t.Fatalf("Compact left %d segments", l.Segments())
	}
	got = replayAll(t, l, 30)
	if len(got) != 10 || got[0] != "record-0030" {
		t.Fatalf("replay after compact = %d records, first %q", len(got), got[0])
	}
	l.Close()

	// Reopen after compaction: the index space is preserved, and First
	// reports the oldest surviving record.
	l = open(t, Options{Dir: dir})
	if l.Count() != 40 {
		t.Fatalf("Count after compact+reopen = %d, want 40", l.Count())
	}
	if first := l.First(); first == 0 || first > 30 {
		t.Fatalf("First after compact+reopen = %d, want in (0, 30]", first)
	}
	appendN(t, l, 40, 1)
	l.Close()
}

// TestFirstAndDirty pins the two introspection hooks the journal's
// crash-consistency checks rely on: First starts at 0 and only moves on
// compaction, Dirty tracks unsynced appends.
func TestFirstAndDirty(t *testing.T) {
	l := open(t, Options{Dir: t.TempDir(), Policy: SyncNever})
	if l.First() != 0 {
		t.Fatalf("fresh First = %d, want 0", l.First())
	}
	if l.Dirty() {
		t.Fatal("fresh log dirty")
	}
	appendN(t, l, 0, 3)
	if !l.Dirty() {
		t.Fatal("SyncNever append left log clean")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Dirty() {
		t.Fatal("Sync left log dirty")
	}
	l.Close()
}

// TestTornTailTruncated cuts the final record short at every possible byte
// offset and asserts the valid prefix survives reopen.
func TestTornTailTruncated(t *testing.T) {
	for cut := 1; cut < frameSize+11; cut++ {
		dir := t.TempDir()
		l := open(t, Options{Dir: dir})
		appendN(t, l, 0, 10)
		l.Close()

		names, err := segmentFiles(iofault.Disk, dir)
		if err != nil || len(names) != 1 {
			t.Fatalf("segments: %v %v", names, err)
		}
		path := filepath.Join(dir, names[0])
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}

		l = open(t, Options{Dir: dir})
		if l.Count() != 9 {
			t.Fatalf("cut=%d: Count = %d, want 9 (torn final record dropped)", cut, l.Count())
		}
		got := replayAll(t, l, 0)
		if len(got) != 9 || got[8] != "record-0008" {
			t.Fatalf("cut=%d: replay = %d records", cut, len(got))
		}
		// The log keeps accepting appends at the truncated index.
		if idx, err := l.Append([]byte("after-tear")); err != nil || idx != 9 {
			t.Fatalf("cut=%d: append after tear: idx=%d err=%v", cut, idx, err)
		}
		l.Close()
	}
}

// TestCorruptTailDropped flips a byte inside the final record's payload:
// the checksum must reject it and reopen must truncate it away.
func TestCorruptTailDropped(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir})
	appendN(t, l, 0, 5)
	l.Close()

	names, _ := segmentFiles(iofault.Disk, dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l = open(t, Options{Dir: dir})
	if l.Count() != 4 {
		t.Fatalf("Count = %d, want 4 after corrupt final record", l.Count())
	}
	l.Close()
}

// TestMidLogCorruptionRefused flips a byte in a non-final segment: that is
// silent data loss, not a torn tail, and Open must refuse it.
func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir, SegmentBytes: 128})
	appendN(t, l, 0, 40)
	if l.Segments() < 2 {
		t.Fatal("need several segments")
	}
	l.Close()

	names, _ := segmentFiles(iofault.Disk, dir)
	path := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0xff
	os.WriteFile(path, data, 0o644)

	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a corrupt non-final segment")
	}
}

// TestTornHeaderSegmentDiscarded simulates a crash during rotation: a
// newest segment shorter than its header holds no records and is removed.
func TestTornHeaderSegmentDiscarded(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir, SegmentBytes: 128})
	appendN(t, l, 0, 10)
	segs := l.Segments()
	l.Close()

	if err := os.WriteFile(filepath.Join(dir, "wal-99999999.seg"), []byte("hpc"), 0o644); err != nil {
		t.Fatal(err)
	}
	l = open(t, Options{Dir: dir})
	if l.Count() != 10 || l.Segments() != segs {
		t.Fatalf("Count=%d Segments=%d after torn-header segment, want 10/%d", l.Count(), l.Segments(), segs)
	}
	appendN(t, l, 10, 1)
	l.Close()
}

func TestSyncPolicies(t *testing.T) {
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
	for _, name := range []string{"always", "interval", "never"} {
		p, err := ParseSyncPolicy(name)
		if err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("policy %q round-trips to %q", name, p.String())
		}
	}

	// Interval policy: appends inside the interval leave the log dirty,
	// the first append past it flushes.
	now := time.Unix(0, 0)
	l := open(t, Options{
		Dir: t.TempDir(), Policy: SyncInterval, Interval: time.Second,
		Now: func() time.Time { return now },
	})
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if !l.dirty {
		t.Error("append inside interval should not sync")
	}
	now = now.Add(2 * time.Second)
	if _, err := l.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if l.dirty {
		t.Error("append past interval should sync")
	}
	if err := l.Sync(); err != nil { // no-op when clean
		t.Fatal(err)
	}
	l.Close()
}

func TestOversizeRecordRejected(t *testing.T) {
	l := open(t, Options{Dir: t.TempDir()})
	defer l.Close()
	if _, err := l.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversize append accepted")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l := open(t, Options{Dir: t.TempDir()})
	l.Close()
	if _, err := l.Append([]byte("x")); err == nil {
		t.Fatal("append after close accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestReplayBytesMatchesFile(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir})
	var want [][]byte
	for i := 0; i < 8; i++ {
		p := bytes.Repeat([]byte{byte(i)}, i+1)
		want = append(want, p)
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := segmentFiles(iofault.Disk, dir)
	data, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	n, err := ReplayBytes(data, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil || n != len(want) {
		t.Fatalf("ReplayBytes = %d, %v", n, err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %v, want %v", i, got[i], want[i])
		}
	}
}
