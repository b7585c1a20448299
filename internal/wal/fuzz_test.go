package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"github.com/hpcfail/hpcfail/internal/iofault"
)

// fuzzSegment builds a well-formed segment image for the seed corpus.
func fuzzSegment(payloads ...[]byte) []byte {
	return fuzzSegmentAt(0, payloads...)
}

// fuzzSegmentAt is fuzzSegment with the given first-record index.
func fuzzSegmentAt(first uint64, payloads ...[]byte) []byte {
	var b bytes.Buffer
	b.WriteString(magic)
	b.Write(binary.BigEndian.AppendUint64(nil, first))
	for _, p := range payloads {
		var frame [frameSize]byte
		binary.BigEndian.PutUint32(frame[:4], uint32(len(p)))
		binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(p, castagnoli))
		b.Write(frame[:])
		b.Write(p)
	}
	return b.Bytes()
}

// FuzzWALReplay throws arbitrary bytes at the replay path. Invariants:
// never panics, always terminates, and any well-formed record prefix is
// recovered intact — appending garbage after a valid segment image must
// not change what replays. Differentially, the bytes also become the newest
// segment after a valid sealed one: Open fails exactly when a follower
// draining the directory fails, and otherwise the follower yields exactly
// the records Open counts.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(fuzzSegment())
	f.Add(fuzzSegment([]byte("one")))
	f.Add(fuzzSegment([]byte("one"), []byte("two"), bytes.Repeat([]byte{0xaa}, 300)))
	f.Add(append(fuzzSegment([]byte("one")), 0x01, 0x02, 0x03))
	huge := fuzzSegment([]byte("x"))
	binary.BigEndian.PutUint32(huge[headerSize:], MaxRecord+1) // oversize length field
	f.Add(huge)
	f.Add(fuzzSegmentAt(uint64(len(fuzzSealed)), []byte("three")))
	f.Add(append(fuzzSegmentAt(uint64(len(fuzzSealed))), 0x00, 0x00))
	f.Add([]byte(magic)[:5])

	f.Fuzz(func(t *testing.T, data []byte) {
		var records [][]byte
		n, err := ReplayBytes(data, func(p []byte) error {
			if len(p) > MaxRecord {
				t.Fatalf("replayed record of %d bytes exceeds MaxRecord", len(p))
			}
			records = append(records, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("ReplayBytes returned fn error that was never raised: %v", err)
		}
		if n != len(records) {
			t.Fatalf("ReplayBytes count %d != callbacks %d", n, len(records))
		}
		// Valid-prefix recovery: re-encoding the replayed records and
		// replaying again must yield the same records (a fixed point).
		again := fuzzSegment(records...)
		var second int
		if _, err := ReplayBytes(again, func(p []byte) error {
			if !bytes.Equal(p, records[second]) {
				t.Fatalf("record %d changed across re-encode", second)
			}
			second++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if second != n {
			t.Fatalf("re-encoded replay = %d records, want %d", second, n)
		}

		checkFollowerMatchesOpen(t, data, records)
	})
}

// fuzzSealed is the sealed first segment the differential check writes
// the fuzz bytes after.
var fuzzSealed = [][]byte{[]byte("one"), []byte("two")}

// checkFollowerMatchesOpen writes data as the newest segment after a valid
// sealed segment holding fuzzSealed, drains a follower over the directory,
// then opens the log there (Open repairs the tail, so the follower reads
// first). records are data's valid prefix as ReplayBytes yields it.
func checkFollowerMatchesOpen(t *testing.T, data []byte, records [][]byte) {
	t.Helper()
	fs := iofault.NewMemFS()
	if err := fs.MkdirAll("/wal", 0o755); err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string][]byte{
		"/wal/wal-00000001.seg": fuzzSegment(fuzzSealed...),
		"/wal/wal-00000002.seg": data,
	} {
		f, err := fs.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(img); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var followed [][]byte
	fol, ferr := OpenFollowerFS(fs, "/wal")
	if ferr == nil {
		_, ferr = fol.Next(0, func(idx uint64, p []byte) error {
			if idx != uint64(len(followed)) {
				t.Fatalf("follower yielded index %d, want %d", idx, len(followed))
			}
			followed = append(followed, append([]byte(nil), p...))
			return nil
		})
	}
	l, oerr := Open(Options{Dir: "/wal", FS: fs})
	if (ferr != nil) != (oerr != nil) {
		t.Fatalf("follower error %v, Open error %v: they must fail together", ferr, oerr)
	}
	if oerr != nil {
		return
	}
	defer l.Close()
	if uint64(len(followed)) != l.Count() {
		t.Fatalf("follower yielded %d records, Open counts %d", len(followed), l.Count())
	}
	want := append(append([][]byte(nil), fuzzSealed...), records...)
	if len(data) < headerSize {
		want = fuzzSealed // a stub newest segment holds no records
	}
	if len(followed) != len(want) {
		t.Fatalf("follower yielded %d records, want %d", len(followed), len(want))
	}
	for i := range want {
		if !bytes.Equal(followed[i], want[i]) {
			t.Fatalf("follower record %d = %q, want %q", i, followed[i], want[i])
		}
	}
}
