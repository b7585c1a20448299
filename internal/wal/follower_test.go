package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcfail/hpcfail/internal/iofault"
)

// tail drains the follower and returns the records as strings, asserting
// contiguous indices starting at the follower's position.
func tail(t *testing.T, f *Follower, max int) []string {
	t.Helper()
	want := f.Position()
	var got []string
	n, err := f.Next(max, func(idx uint64, payload []byte) error {
		if idx != want {
			t.Fatalf("follower index %d, want %d", idx, want)
		}
		want++
		got = append(got, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if n != len(got) {
		t.Fatalf("Next count %d != callbacks %d", n, len(got))
	}
	return got
}

func TestFollowerTailsLiveLog(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir})
	defer l.Close()
	appendN(t, l, 0, 5)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	f, err := OpenFollowerFS(nil, dir)
	if err != nil {
		t.Fatalf("OpenFollowerFS: %v", err)
	}
	if got := tail(t, f, 0); len(got) != 5 || got[0] != "record-0000" || got[4] != "record-0004" {
		t.Fatalf("first drain = %v", got)
	}
	// Caught up: zero records, no error, position stable.
	if got := tail(t, f, 0); len(got) != 0 {
		t.Fatalf("caught-up drain = %v, want none", got)
	}
	if f.Position() != 5 {
		t.Fatalf("Position = %d, want 5", f.Position())
	}

	// The leader keeps appending; the follower picks the new records up.
	appendN(t, l, 5, 3)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := tail(t, f, 0); len(got) != 3 || got[0] != "record-0005" {
		t.Fatalf("second drain = %v", got)
	}
}

func TestFollowerCrossesSegmentsWithMax(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	l := open(t, Options{Dir: dir, SegmentBytes: 128})
	defer l.Close()
	appendN(t, l, 0, 40)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Segments() < 3 {
		t.Fatalf("Segments = %d, want rotation", l.Segments())
	}

	f, err := OpenFollowerFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Drain in small batches so segment boundaries land mid-batch and
	// between batches.
	var got []string
	for {
		batch := tail(t, f, 7)
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	if len(got) != 40 || got[0] != "record-0000" || got[39] != "record-0039" {
		t.Fatalf("drained %d records, first %q last %q", len(got), got[0], got[len(got)-1])
	}
}

func TestFollowerSeekAndPending(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir, SegmentBytes: 128})
	defer l.Close()
	appendN(t, l, 0, 20)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	f, err := OpenFollowerFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	f.Seek(15)
	if n, err := pending(f); err != nil || n != 5 {
		t.Fatalf("pending = %d, %v, want 5, nil", n, err)
	}
	// Counting must not consume.
	if f.Position() != 15 {
		t.Fatalf("Position after pending = %d, want 15", f.Position())
	}
	if got := tail(t, f, 0); len(got) != 5 || got[0] != "record-0015" {
		t.Fatalf("post-seek drain = %v", got)
	}
}

func TestFollowerGapAfterCompact(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir, SegmentBytes: 128})
	defer l.Close()
	appendN(t, l, 0, 30)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFollowerFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	// The leader snapshots and compacts past the follower's position.
	if err := l.Compact(25); err != nil {
		t.Fatal(err)
	}
	if l.First() == 0 {
		t.Skip("compaction kept the first segment; gap not reproducible at this size")
	}
	if _, err := f.Next(0, nil); !errors.Is(err, ErrGap) {
		t.Fatalf("Next after compact = %v, want ErrGap", err)
	}
}

func TestFollowerEmptyAndLateDirectory(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFollowerFS(nil, dir)
	if err != nil {
		t.Fatalf("OpenFollowerFS(empty): %v", err)
	}
	if got := tail(t, f, 0); len(got) != 0 {
		t.Fatalf("empty-dir drain = %v", got)
	}
	// The leader appears later; the follower picks it up from record 0.
	l := open(t, Options{Dir: dir})
	defer l.Close()
	appendN(t, l, 0, 3)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := tail(t, f, 0); len(got) != 3 || got[0] != "record-0000" {
		t.Fatalf("late-leader drain = %v", got)
	}
}

func TestShipBatchRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{0xab}, 300)}
	enc, err := EncodeShipBatch(7, payloads)
	if err != nil {
		t.Fatalf("EncodeShipBatch: %v", err)
	}
	first, got, err := DecodeShipBatch(enc)
	if err != nil {
		t.Fatalf("DecodeShipBatch: %v", err)
	}
	if first != 7 || len(got) != len(payloads) {
		t.Fatalf("decoded first=%d count=%d, want 7, %d", first, len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], payloads[i])
		}
	}
	// Any single-bit flip in the body must be rejected.
	for off := shipHeaderSize; off < len(enc); off += 13 {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x10
		if _, _, err := DecodeShipBatch(bad); err == nil {
			t.Fatalf("bit flip at %d decoded cleanly", off)
		}
	}
	// Trailing garbage must be rejected, not ignored.
	if _, _, err := DecodeShipBatch(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
}

// FuzzShipBatchDecode throws arbitrary bytes at the shipping decoder.
// Invariants: never panics, never over-allocates past the input, and every
// successful decode re-encodes to a batch that decodes identically (a fixed
// point — what the standby applies is exactly what was framed).
func FuzzShipBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(shipMagic))
	seed, _ := EncodeShipBatch(0, nil)
	f.Add(seed)
	seed, _ = EncodeShipBatch(3, [][]byte{[]byte("one"), []byte("two")})
	f.Add(seed)
	f.Add(append(append([]byte(nil), seed...), 0xff))
	huge, _ := EncodeShipBatch(0, [][]byte{[]byte("x")})
	huge[len(shipMagic)+8] = 0xff // absurd count field
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		first, payloads, err := DecodeShipBatch(data)
		if err != nil {
			return
		}
		var total int
		for _, p := range payloads {
			total += len(p)
		}
		if total > len(data) {
			t.Fatalf("decoded %d payload bytes from %d input bytes", total, len(data))
		}
		again, err := EncodeShipBatch(first, payloads)
		if err != nil {
			t.Fatalf("re-encode of valid batch failed: %v", err)
		}
		first2, payloads2, err := DecodeShipBatch(again)
		if err != nil || first2 != first || len(payloads2) != len(payloads) {
			t.Fatalf("round trip changed batch: first %d->%d count %d->%d err=%v",
				first, first2, len(payloads), len(payloads2), err)
		}
		for i := range payloads {
			if !bytes.Equal(payloads[i], payloads2[i]) {
				t.Fatalf("round trip changed record %d", i)
			}
		}
	})
}

// TestFollowerIgnoresTornTail checks the replication safety core: a torn
// final frame (leader crash mid-append) yields nothing — only CRC-complete
// records cross — and once the leader reopens (truncating the tear) and
// appends, the follower resumes at the right index.
func TestFollowerIgnoresTornTail(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir})
	appendN(t, l, 0, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := OpenFollowerFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := tail(t, f, 0); len(got) != 4 {
		t.Fatalf("pre-tear drain = %v", got)
	}

	// Simulate a crash mid-append: a frame header promising more bytes than
	// were written lands after the valid tail of the only segment.
	names, err := segmentFiles(iofault.Disk, dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segmentFiles = %v, %v", names, err)
	}
	path := filepath.Join(dir, names[0])
	torn := []byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad, 0xbe, 0xef, 'p', 'a', 'r'}
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write(torn); err != nil {
		t.Fatal(err)
	}
	file.Close()
	if got := tail(t, f, 0); len(got) != 0 {
		t.Fatalf("torn-tail drain = %v, want none", got)
	}

	// The leader reopens (truncating the tear) and keeps appending; the
	// follower resumes at record 4.
	l = open(t, Options{Dir: dir})
	defer l.Close()
	appendN(t, l, 4, 2)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := tail(t, f, 0); len(got) != 2 || got[0] != "record-0004" {
		t.Fatalf("post-reopen drain = %v", got)
	}
}

// pending counts records readable past f's position without consuming
// them: it drains a copy of f.
func pending(f *Follower) (uint64, error) {
	c := *f
	n, err := c.Next(0, nil)
	return uint64(n), err
}
