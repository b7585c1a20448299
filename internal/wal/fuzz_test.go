package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
// segment after a valid sealed one, and then the sealed segment ahead of a
// valid successor: Open fails exactly when a follower draining the
// directory fails, and otherwise the follower yields the records ReplayBytes
// reads and Open counts them.
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
	f.Add(append(fuzzSegment([]byte("one"), []byte("two"), []byte("three")), 0, 0, 0, 9, 1, 2, 3, 4, 5))

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

// fuzzSuccessor is the record the valid successor of a sealed fuzz segment
// holds.
var fuzzSuccessor = []byte("three")

// checkFollowerMatchesOpen runs the differential twice. First data is the
// newest segment after a valid sealed one holding fuzzSealed: the log holds
// those records plus data's valid prefix. Then data is the sealed first
// segment, ahead of a valid successor starting where data's valid prefix
// ends: the log holds that prefix plus fuzzSuccessor, or, when data is not
// whole records to its last byte, both Open and a follower fail. records is
// data's valid prefix as ReplayBytes yields it.
func checkFollowerMatchesOpen(t *testing.T, data []byte, records [][]byte) {
	t.Helper()
	var first uint64
	header := len(data) >= headerSize && string(data[:len(magic)]) == magic
	if header {
		first = binary.BigEndian.Uint64(data[len(magic):headerSize])
	}
	// A stub newest segment holds no records; any other must continue the
	// sealed one.
	newest := len(data) < headerSize || header && first == uint64(len(fuzzSealed))
	checkDrain(t, 0, append(append([][]byte(nil), fuzzSealed...), records...), newest,
		fuzzSegment(fuzzSealed...), data)

	whole := header && len(fuzzSegmentAt(first, records...)) == len(data)
	checkDrain(t, first, append(records, fuzzSuccessor), whole,
		data, fuzzSegmentAt(first+uint64(len(records)), fuzzSuccessor))
}

// checkDrain writes segs as a log directory, drains a follower over it, then
// opens the log there (Open repairs the tail, so the follower reads first).
// When ok, both must succeed, the follower must yield want from index
// first on, and Open must count to its end; otherwise both must fail.
func checkDrain(t *testing.T, first uint64, want [][]byte, ok bool, segs ...[]byte) {
	t.Helper()
	fs := iofault.NewMemFS()
	if err := fs.MkdirAll("/wal", 0o755); err != nil {
		t.Fatal(err)
	}
	for i, img := range segs {
		f, err := fs.OpenFile(fmt.Sprintf("/wal/wal-%08d.seg", i+1), os.O_CREATE|os.O_WRONLY, 0o644)
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
			if want := first + uint64(len(followed)); idx != want {
				t.Fatalf("follower yielded index %d, want %d", idx, want)
			}
			followed = append(followed, append([]byte(nil), p...))
			return nil
		})
	}
	l, oerr := Open(Options{Dir: "/wal", FS: fs})
	if oerr == nil {
		defer l.Close()
	}
	if (ferr == nil) != ok || (oerr == nil) != ok {
		t.Fatalf("follower error %v, Open error %v, want success %v for both", ferr, oerr, ok)
	}
	if !ok {
		return
	}
	if end := first + uint64(len(followed)); end != l.Count() {
		t.Fatalf("follower ends at record %d, Open counts %d", end, l.Count())
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
