// WAL shipping: a Follower tails a log directory read-only — the
// replication half of warm-standby failover. The leader keeps appending
// through its Log; the follower re-reads the same segment files with the
// same CRC framing, so every record the follower yields is exactly a record
// the leader made durable (a torn or in-flight append fails the frame check
// and is simply retried on the next call). Batches cross the replication
// boundary in a self-delimiting ship format (EncodeShipBatch /
// DecodeShipBatch) so the stream can later move across a real network
// without touching the apply path.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/hpcfail/hpcfail/internal/iofault"
)

// ErrGap reports that the follower's position was compacted away: the
// leader snapshotted and removed segments the follower had not consumed.
// The standby must rebuild from the leader's snapshot instead of replaying.
var ErrGap = errors.New("wal: follower position compacted away")

// Follower is a read-only cursor over a WAL directory. It is not safe for
// concurrent use; the standby serializes access.
type Follower struct {
	dir string
	fs  iofault.FS
	pos uint64 // global index of the next record to yield
	seg string // basename of the segment containing pos ("" = locate lazily)
	off int64  // byte offset of the next record within seg
}

// OpenFollower opens a tailing cursor at the oldest surviving record of the
// log in dir. A missing or empty directory is fine — the follower starts at
// record 0 and picks segments up as the leader creates them.
func OpenFollower(dir string) (*Follower, error) {
	return OpenFollowerFS(nil, dir)
}

// OpenFollowerFS is OpenFollower over an explicit filesystem (nil means
// the real disk); the follower must read through the same FS the leader
// writes through, or fault-injection tests would tail a log that does not
// exist. Only the oldest segment's header is read: the follower stands on
// that segment's first record and checks every later segment's start as it
// steps into it, the same chain Open verifies.
func OpenFollowerFS(fsys iofault.FS, dir string) (*Follower, error) {
	if dir == "" {
		return nil, errors.New("wal: follower needs a directory")
	}
	f := &Follower{dir: dir, fs: iofault.Or(fsys)}
	names, err := f.segmentList()
	if err != nil {
		return nil, err
	}
	if len(names) > 0 {
		first, err := readSegmentFirst(f.fs, filepath.Join(dir, names[0]))
		if err != nil {
			return nil, err
		}
		f.pos, f.seg, f.off = first, names[0], int64(headerSize)
	}
	return f, nil
}

// Position returns the global index of the next record the follower will
// yield — equivalently, how many records it has consumed (plus any the
// leader compacted before the follower started).
func (f *Follower) Position() uint64 { return f.pos }

// Seek repositions the follower to the given global record index (used
// after restoring a leader snapshot that already covers earlier records).
// The segment holding the index is located lazily on the next read.
func (f *Follower) Seek(pos uint64) {
	f.pos = pos
	f.seg = ""
	f.off = 0
}

// segmentList reads the directory and returns segment basenames ascending.
// A directory that does not exist yet reads as empty. A newest segment
// shorter than a header holds no records — a rotation that crashed (or is
// still running) before its header landed — so it is left out, exactly as
// Open discards it; a short segment with successors stays in the list and
// fails its header read.
func (f *Follower) segmentList() ([]string, error) {
	names, err := segmentFiles(f.fs, f.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	if n := len(names); n > 0 {
		// A segment gone since the listing was a stub Open discarded.
		fi, err := f.fs.Stat(filepath.Join(f.dir, names[n-1]))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("wal: follower: %w", err)
		}
		if err != nil || fi.Size() < int64(headerSize) {
			names = names[:n-1]
		}
	}
	return names, nil
}

// locate finds the segment containing f.pos and the byte offset of that
// record, scanning record frames from the segment header. It returns ErrGap
// when f.pos is below the oldest live record — the leader compacted past us.
func (f *Follower) locate(names []string) error {
	if len(names) == 0 {
		return nil // nothing to read yet
	}
	// Pick the last segment whose first index is <= pos.
	chosen := ""
	var chosenFirst uint64
	for _, name := range names {
		first, err := readSegmentFirst(f.fs, filepath.Join(f.dir, name))
		if err != nil {
			return err
		}
		if first <= f.pos {
			chosen, chosenFirst = name, first
		}
	}
	if chosen == "" {
		// Every live segment starts past pos: the records at pos were
		// compacted away.
		return fmt.Errorf("%w (want record %d, oldest live segment starts later)", ErrGap, f.pos)
	}
	// Scan frames forward to the target record.
	file, err := iofault.Open(f.fs, filepath.Join(f.dir, chosen))
	if err != nil {
		return fmt.Errorf("wal: follower: %w", err)
	}
	defer file.Close()
	if _, err := file.Seek(int64(headerSize), io.SeekStart); err != nil {
		return fmt.Errorf("wal: follower: %w", err)
	}
	cr := &countReader{r: file}
	idx := chosenFirst
	var buf []byte
	for idx < f.pos {
		payload, ok := readRecord(cr, buf)
		if !ok {
			// The target record is not readable yet (leader mid-write or pos
			// past the durable tail). Stand at the valid prefix end; reads
			// will resume once the record completes.
			break
		}
		buf = payload
		idx++
	}
	f.seg = chosen
	f.off = int64(headerSize) + cr.n
	f.pos = idx
	return nil
}

// readSegmentFirst reads just a segment's header first-record index.
func readSegmentFirst(fsys iofault.FS, path string) (uint64, error) {
	file, err := iofault.Open(fsys, path)
	if err != nil {
		return 0, fmt.Errorf("wal: follower: %w", err)
	}
	defer file.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(file, hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: follower: %s: short header: %w", filepath.Base(path), err)
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, fmt.Errorf("wal: follower: %s: bad magic %q", filepath.Base(path), hdr[:len(magic)])
	}
	return binary.BigEndian.Uint64(hdr[len(magic):]), nil
}

// Next reads up to max records from the current position, calling fn with
// each record's global index and payload. The payload slice is only valid
// during the call; fn must copy to retain. It returns how many records were
// yielded; zero with a nil error means the follower is caught up with the
// durable tail. Pass max <= 0 for "all available".
func (f *Follower) Next(max int, fn func(idx uint64, payload []byte) error) (int, error) {
	names, err := f.segmentList()
	if err != nil {
		return 0, err
	}
	if f.seg == "" {
		if err := f.locate(names); err != nil {
			return 0, err
		}
		if f.seg == "" {
			return 0, nil
		}
	}
	// The current segment may have been compacted away while we were not
	// looking; relocate (which reports ErrGap if pos itself is gone).
	if !containsName(names, f.seg) {
		f.seg = ""
		return f.Next(max, fn)
	}
	read := 0
	var buf []byte
	for {
		file, err := iofault.Open(f.fs, filepath.Join(f.dir, f.seg))
		if err != nil {
			return read, fmt.Errorf("wal: follower: %w", err)
		}
		if _, err := file.Seek(f.off, io.SeekStart); err != nil {
			file.Close()
			return read, fmt.Errorf("wal: follower: %w", err)
		}
		cr := &countReader{r: file}
		for max <= 0 || read < max {
			payload, ok := readRecord(cr, buf)
			if !ok {
				break
			}
			buf = payload
			if fn != nil {
				if err := fn(f.pos, payload); err != nil {
					file.Close()
					return read, err
				}
			}
			f.pos++
			f.off += int64(frameSize + len(payload))
			read++
		}
		file.Close()
		if max > 0 && read >= max {
			return read, nil
		}
		// Exhausted the current segment's valid prefix: if a successor
		// segment starts exactly at our position, the current one is sealed —
		// move on. Otherwise we are at the durable tail (or waiting out a
		// torn in-flight append) and stop here.
		next := nameAfter(names, f.seg)
		if next == "" {
			return read, nil
		}
		first, err := readSegmentFirst(f.fs, filepath.Join(f.dir, next))
		if err != nil {
			return read, err
		}
		if first != f.pos {
			if first < f.pos {
				return read, fmt.Errorf("wal: follower: segment %s starts at %d, behind position %d", next, first, f.pos)
			}
			// first > pos with a sealed successor: records between pos and
			// first fail their frame check — mid-log corruption, the same
			// condition Open refuses to start over.
			return read, fmt.Errorf("wal: follower: segment %s: corrupt record mid-log before index %d", f.seg, first)
		}
		f.seg = next
		f.off = int64(headerSize)
	}
}

// Pending counts records readable past the current position without
// consuming them — the replication lag in records when the leader is gone
// (with a live leader, lag is leader Count minus follower Position).
func (f *Follower) Pending() (uint64, error) {
	c := *f
	n, err := c.Next(0, nil)
	return uint64(n), err
}

func containsName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

func nameAfter(names []string, name string) string {
	for i, n := range names {
		if n == name && i+1 < len(names) {
			return names[i+1]
		}
	}
	return ""
}

// Ship-batch wire format: how a run of WAL records crosses the replication
// boundary from follower to standby. Self-delimiting and checksummed so a
// future network transport can reuse it unchanged:
//
//	magic "hpcship1" | first record index (8B BE) | record count (4B BE)
//	| count x ( length (4B BE) | CRC32C (4B BE) | payload )
const shipMagic = "hpcship1"

// shipHeaderSize is magic + first index + count.
const shipHeaderSize = len(shipMagic) + 8 + 4

// MaxShipRecords bounds one batch so a corrupt count field can never force
// a giant allocation.
const MaxShipRecords = 1 << 16

// EncodeShipBatch frames a run of records starting at global index first.
func EncodeShipBatch(first uint64, payloads [][]byte) ([]byte, error) {
	if len(payloads) > MaxShipRecords {
		return nil, fmt.Errorf("wal: ship batch of %d records exceeds limit %d", len(payloads), MaxShipRecords)
	}
	size := shipHeaderSize
	for _, p := range payloads {
		if len(p) > MaxRecord {
			return nil, fmt.Errorf("wal: ship record of %d bytes exceeds limit %d", len(p), MaxRecord)
		}
		size += frameSize + len(p)
	}
	out := make([]byte, 0, size)
	out = append(out, shipMagic...)
	out = binary.BigEndian.AppendUint64(out, first)
	out = binary.BigEndian.AppendUint32(out, uint32(len(payloads)))
	for _, p := range payloads {
		out = binary.BigEndian.AppendUint32(out, uint32(len(p)))
		out = binary.BigEndian.AppendUint32(out, crc32.Checksum(p, castagnoli))
		out = append(out, p...)
	}
	return out, nil
}

// DecodeShipBatch parses a ship batch, returning the first record index and
// the payloads (freshly allocated; safe to retain). It never panics on
// arbitrary input: any framing, checksum, count or trailing-byte violation
// is an error and nothing is applied.
func DecodeShipBatch(data []byte) (first uint64, payloads [][]byte, err error) {
	if len(data) < shipHeaderSize {
		return 0, nil, errors.New("wal: ship batch too short")
	}
	if string(data[:len(shipMagic)]) != shipMagic {
		return 0, nil, fmt.Errorf("wal: ship batch bad magic %q", data[:len(shipMagic)])
	}
	first = binary.BigEndian.Uint64(data[len(shipMagic):])
	count := binary.BigEndian.Uint32(data[len(shipMagic)+8:])
	if count > MaxShipRecords {
		return 0, nil, fmt.Errorf("wal: ship batch claims %d records, limit %d", count, MaxShipRecords)
	}
	rest := data[shipHeaderSize:]
	payloads = make([][]byte, 0, min(int(count), len(rest)/frameSize+1))
	for i := uint32(0); i < count; i++ {
		if len(rest) < frameSize {
			return 0, nil, fmt.Errorf("wal: ship batch truncated at record %d of %d", i, count)
		}
		length := binary.BigEndian.Uint32(rest[:4])
		sum := binary.BigEndian.Uint32(rest[4:8])
		if length > MaxRecord {
			return 0, nil, fmt.Errorf("wal: ship record %d of %d bytes exceeds limit %d", i, length, MaxRecord)
		}
		rest = rest[frameSize:]
		if uint32(len(rest)) < length {
			return 0, nil, fmt.Errorf("wal: ship batch truncated inside record %d", i)
		}
		p := append([]byte(nil), rest[:length]...)
		if crc32.Checksum(p, castagnoli) != sum {
			return 0, nil, fmt.Errorf("wal: ship record %d checksum mismatch", i)
		}
		payloads = append(payloads, p)
		rest = rest[length:]
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("wal: ship batch has %d trailing bytes", len(rest))
	}
	return first, payloads, nil
}
