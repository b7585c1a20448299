// WAL shipping: a Follower tails a log directory read-only — the
// replication half of warm-standby failover. The leader keeps appending
// through its Log; the follower re-reads the same segment files with the
// same CRC framing, so every record the follower yields is exactly a record
// the leader made durable (a torn or in-flight append fails the frame check
// and is simply retried on the next call). Once the leader is gone, Lead
// turns a follower that has read to the tail into the log's next writer.
// Batches cross the replication boundary in a self-delimiting ship format
// (EncodeShipBatch / DecodeShipBatch) so the stream can later move across a
// real network without touching the apply path.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/hpcfail/hpcfail/internal/iofault"
)

// ErrGap reports that the follower's position was compacted away: the
// leader snapshotted and removed segments the follower had not consumed.
// The standby must rebuild from the leader's snapshot instead of replaying.
var ErrGap = errors.New("wal: follower position compacted away")

// ErrBehind reports that Lead found a record past the follower's position:
// leading there would append after, or truncate, a record the follower never
// yielded. Drain the follower and lead again.
var ErrBehind = errors.New("wal: follower behind the durable tail")

// Follower is a read-only cursor over a WAL directory. It is not safe for
// concurrent use; the standby serializes access. Its read loop is the only
// code that scans record frames, and it holds the log's one corruption
// rule:
//
//   - a newest segment shorter than a header holds no records (a rotation
//     that crashed, or is still running, before its header landed);
//   - a torn tail of the newest segment ends the log: the follower stops
//     there and yields the records once the leader completes them;
//   - a sealed segment (one with a successor) must hold whole records up to
//     its last byte, and its successor must start where it ended;
//   - a read that fails is an error, never a torn tail.
//
// Every writer is made by Lead from a follower at the tail (Open drains a
// fresh one), so a standby applies exactly the records its promotion keeps,
// and fails where that promotion would.
type Follower struct {
	dir  string
	fs   iofault.FS
	pos  uint64 // global index of the record at off
	skip uint64 // records to pass over before yielding (a Seek target ahead of pos)
	seg  string // basename of the segment containing pos ("" = locate lazily)
	off  int64  // byte offset of the next record within seg
	torn bool   // the last read stopped at bytes that are not a whole record
	stub string // newest segment left out for being shorter than a header
}

// OpenFollowerFS opens a tailing cursor at the oldest surviving record of
// the log in dir, reading through fsys (nil means the real disk); the
// follower must read through the same FS the leader writes through, or
// fault-injection tests would tail a log that does not exist. A missing or
// empty directory is fine — the follower starts at record 0 and picks
// segments up as the leader creates them.
//
// Only the oldest segment's header is read: the follower stands on that
// segment's first record and checks every later segment's start as it steps
// into it.
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
		f.enter(names[0], first)
	}
	return f, nil
}

// Position returns the global index of the next record the follower will
// yield — equivalently, how many records it has consumed (plus any the
// leader compacted before the follower started).
func (f *Follower) Position() uint64 { return f.pos + f.skip }

// Seek repositions the follower to the given global record index (used
// after restoring a leader snapshot that already covers earlier records).
// The segment holding the index is located lazily on the next read; a
// target past the durable tail leaves the follower at the tail.
func (f *Follower) Seek(pos uint64) {
	f.pos, f.skip, f.seg = pos, 0, ""
}

// enter stands the follower at the first record of segment name.
func (f *Follower) enter(name string, first uint64) {
	f.seg, f.off, f.pos = name, int64(headerSize), first
}

// segmentList reads the directory and returns segment basenames ascending.
// A directory that does not exist yet reads as empty. A newest segment
// shorter than a header holds no records, so it is left out (and named in
// f.stub for Lead to remove); a short segment with successors stays in the
// list and fails its header read.
func (f *Follower) segmentList() ([]string, error) {
	names, err := segmentFiles(f.fs, f.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	f.stub = ""
	if n := len(names); n > 0 {
		// A segment gone since the listing was a stub Lead discarded.
		fi, err := f.fs.Stat(filepath.Join(f.dir, names[n-1]))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("wal: follower: %w", err)
		}
		if err != nil || fi.Size() < int64(headerSize) {
			f.stub, names = names[n-1], names[:n-1]
		}
	}
	return names, nil
}

// locate stands the follower at the start of the oldest live segment,
// leaving the records before its position to skip, so a sought follower
// reads every live record through the one read loop. It returns ErrGap
// when the position is below the oldest live record — the leader compacted
// past us.
func (f *Follower) locate(oldest string) error {
	first, err := readSegmentFirst(f.fs, filepath.Join(f.dir, oldest))
	if err != nil {
		return err
	}
	target := f.Position()
	if first > target {
		return fmt.Errorf("%w (want record %d, oldest live segment starts at %d)", ErrGap, target, first)
	}
	f.enter(oldest, first)
	f.skip = target - first
	return nil
}

// readSegmentFirst reads just a segment's header first-record index.
func readSegmentFirst(fsys iofault.FS, path string) (uint64, error) {
	file, err := iofault.Open(fsys, path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer file.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(file, hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: %s: short header: %w", filepath.Base(path), err)
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, fmt.Errorf("wal: %s: bad magic %q", filepath.Base(path), hdr[:len(magic)])
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
	// A segment compacted away while we were not looking is relocated like a
	// fresh Seek (which reports ErrGap if the position itself is gone).
	if f.seg == "" || !slices.Contains(names, f.seg) {
		f.seg = ""
		if len(names) == 0 {
			return 0, nil // nothing to read yet
		}
		if err := f.locate(names[0]); err != nil {
			return 0, err
		}
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
		for max <= 0 || read < max {
			payload, rerr := readRecord(file, buf)
			if rerr == io.EOF || rerr == errTorn {
				f.torn = rerr == errTorn
				break
			}
			if rerr != nil {
				file.Close()
				return read, fmt.Errorf("wal: follower: %s: %w", f.seg, rerr)
			}
			buf = payload
			if f.skip > 0 {
				f.skip--
			} else {
				if fn != nil {
					if err := fn(f.pos, payload); err != nil {
						file.Close()
						return read, err
					}
				}
				read++
			}
			f.pos++
			f.off += int64(frameSize + len(payload))
		}
		file.Close()
		if max > 0 && read >= max {
			return read, nil
		}
		// Exhausted the current segment's whole records. Without a successor
		// we are at the durable tail (or waiting out a torn in-flight append),
		// and a Seek target past it leaves us here. With one, this segment is
		// sealed: it must end on a record boundary, and the successor must
		// start at our position.
		i := slices.Index(names, f.seg)
		if i+1 == len(names) {
			f.skip = 0
			return read, nil
		}
		if f.torn {
			return read, fmt.Errorf("wal: %s: corrupt record mid-log (valid to byte %d)", f.seg, f.off)
		}
		next := names[i+1]
		first, err := readSegmentFirst(f.fs, filepath.Join(f.dir, next))
		if err != nil {
			return read, err
		}
		if first != f.pos {
			return read, fmt.Errorf("wal: %s starts at record %d, want %d (missing segment?)", next, first, f.pos)
		}
		f.enter(next, first)
	}
}

// Lead turns a follower that has read to the durable tail into the log's
// writer, without re-reading a record: it removes a newest segment shorter
// than a header, truncates a torn tail at the follower's offset, lists the
// live segments from their headers and opens the newest for appending. The
// log is the follower's directory on the follower's filesystem; opts
// supplies only the fsync policy, interval, segment size and clock. A record
// readable past the follower's position is never truncated: Lead refuses
// with ErrBehind and leaves it in place for the next drain. A log has one
// writer, so a follower that has led must not lead again.
func (f *Follower) Lead(opts Options) (*Log, error) {
	if err := f.fs.MkdirAll(f.dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// At the tail this probe reads no record bytes; it refreshes the torn
	// and stub state the repair below acts on.
	tail := *f
	if n, err := tail.Next(1, nil); err != nil {
		return nil, err
	} else if n > 0 {
		return nil, fmt.Errorf("%w: record %d is readable", ErrBehind, f.Position())
	}
	names, err := tail.segmentList()
	if err != nil {
		return nil, err
	}
	if len(names) > 0 && names[len(names)-1] != tail.seg {
		return nil, fmt.Errorf("%w: segment %s appeared", ErrBehind, names[len(names)-1])
	}
	if tail.stub != "" {
		// A crash during rotation tore the newest segment's header.
		if err := f.fs.Remove(filepath.Join(f.dir, tail.stub)); err != nil {
			return nil, fmt.Errorf("wal: removing torn segment %s: %w", tail.stub, err)
		}
	}
	l := &Log{
		dir:      f.dir,
		segBytes: cmp.Or(max(opts.SegmentBytes, 0), DefaultSegmentBytes),
		policy:   opts.Policy,
		interval: opts.SyncEvery(),
		now:      opts.Now,
		fs:       f.fs,
	}
	if l.now == nil {
		l.now = time.Now
	}
	for _, name := range names {
		path := filepath.Join(f.dir, name)
		first, err := readSegmentFirst(f.fs, path)
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, segment{path: path, first: first})
	}
	if len(l.segs) == 0 {
		// Without a segment the follower's position is a Seek target, not a
		// record it read: the log is empty.
		if err := l.rotate(); err != nil {
			return nil, err
		}
	} else {
		path := l.segs[len(l.segs)-1].path
		if tail.torn {
			if err := f.fs.Truncate(path, tail.off); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", tail.seg, err)
			}
		}
		// Bytes that landed since the probe would sit unread under the
		// first append.
		if fi, err := f.fs.Stat(path); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		} else if fi.Size() != tail.off {
			return nil, fmt.Errorf("%w: %s grew past offset %d", ErrBehind, tail.seg, tail.off)
		}
		if l.f, err = f.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.count, l.fSize = tail.pos, tail.off
	}
	l.lastSync = l.now()
	return l, nil
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
