// Package wal is an append-only, checksummed write-ahead log for the
// serving layer: every event accepted by the online risk engine is appended
// here before it mutates in-memory state, so a crash (power cut, OOM kill,
// SIGKILL) loses nothing that was acknowledged. The log is the durability
// half of the paper's operator-facing promise — conditional failure
// probabilities are only trustworthy online if the event stream feeding
// them is replayable (LogMaster and the Blue Gene/Q log studies make the
// same point for correlation mining).
//
// Layout: a directory of fixed-prefix segment files (wal-00000001.seg,
// ...), each starting with an 8-byte magic and the global index of its
// first record, followed by length+CRC32C-framed records. Appends go to the
// newest segment and rotate once it exceeds the size bound. A Follower
// (follower.go) is the one reader of records: its read loop is the only
// code that scans frames, and it holds the one corruption rule. Every
// writer is made by Follower.Lead from a follower that has read to the
// tail: it truncates the final segment's torn tail (a record cut short by a
// crash mid-write) to the last whole record, keeping the records before the
// tear, and reads directory listings and segment headers, never a record.
// Open is a fresh follower's drain plus Lead. A standby's promotion is its
// last drain plus Lead, so it reads the records the standby had not yet
// applied and one header per live segment, not the history.
//
// Three fsync policies trade durability for ingest throughput:
//
//	SyncAlways    fsync after every append (no acknowledged loss)
//	SyncInterval  fsync at most every Interval (bounded loss window)
//	SyncNever     leave flushing to the OS (crash loses the page cache)
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/iofault"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when Options.Interval has elapsed since the last
	// sync, checked by Flush: on every append, and wherever the owner drives
	// Flush periodically so a quiet log's last appends do not wait for the
	// next one.
	SyncInterval
	// SyncNever never fsyncs; the OS flushes when it pleases.
	SyncNever
)

// String names the policy as accepted by ParseSyncPolicy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseSyncPolicy parses "always", "interval" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (use always, interval or never)", s)
	}
}

const (
	// magic opens every segment file; the trailing digit is the format
	// version.
	magic = "hpcwal01"
	// headerSize is magic plus the big-endian first-record index.
	headerSize = len(magic) + 8
	// frameSize precedes every record: 4-byte big-endian payload length and
	// 4-byte CRC32C of the payload.
	frameSize = 8
	// MaxRecord bounds one record's payload so a corrupt length field can
	// never force a giant allocation.
	MaxRecord = 1 << 20
	// DefaultSegmentBytes rotates segments at 4 MiB.
	DefaultSegmentBytes = 4 << 20
	// DefaultInterval is the SyncInterval flush spacing.
	DefaultInterval = 100 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// Dir is the log directory, created if missing. Required.
	Dir string
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Policy selects the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// Interval is the SyncInterval flush spacing; 0 means DefaultInterval
	// (see SyncEvery).
	Interval time.Duration
	// Now supplies the clock for SyncInterval; defaults to time.Now.
	Now func() time.Time
	// FS routes every file operation; nil means the real disk
	// (iofault.Disk). Tests substitute a fault-injecting or in-memory
	// filesystem here.
	FS iofault.FS
}

// SyncEvery is the SyncInterval flush spacing a log opened with these
// options keeps: Interval, or DefaultInterval when Interval is not positive.
func (o Options) SyncEvery() time.Duration {
	if o.Interval <= 0 {
		return DefaultInterval
	}
	return o.Interval
}

// Log is an open write-ahead log. Append/Sync/Close are safe for use from
// one goroutine at a time; callers needing concurrency serialize outside
// (the serving layer's journal does).
type Log struct {
	dir      string
	segBytes int64
	policy   SyncPolicy
	interval time.Duration
	now      func() time.Time
	fs       iofault.FS

	f        iofault.File // current (newest) segment
	fSize    int64
	segs     []segment // all live segments, ascending
	count    uint64    // global index of the next record appended
	dirty    bool      // unsynced appends outstanding
	lastSync time.Time
	closed   bool
	fail     error // sticky poison: set once durability can no longer be promised
}

// segment is one live segment file.
type segment struct {
	path  string
	first uint64 // global index of its first record
}

// Open opens (creating if needed) the log in opts.Dir: it drains a fresh
// Follower from the oldest segment and leads from where the drain stopped
// (Follower.Lead), so recovery keeps exactly the records a standby over the
// directory applies and refuses what it refuses. The returned log appends
// after the last surviving record.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: empty directory")
	}
	f, err := OpenFollowerFS(opts.FS, opts.Dir)
	if err != nil {
		return nil, err
	}
	if _, err := f.Next(0, nil); err != nil {
		return nil, err
	}
	return f.Lead(opts)
}

// segmentFiles lists the directory's segment files in ascending order.
func segmentFiles(fsys iofault.FS, dir string) ([]string, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".seg" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// errTorn reports bytes that are not a whole, intact record.
var errTorn = errors.New("wal: torn record")

// readRecord reads one framed record into buf (growing it as needed). It
// returns io.EOF when r ends exactly on a record boundary, errTorn when the
// bytes there are not a whole record (a short read, an oversized or empty
// length, a checksum mismatch), and any other error r reports — a failed
// read says nothing about what the file holds.
func readRecord(r io.Reader, buf []byte) ([]byte, error) {
	var frame [frameSize]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errTorn
		}
		return nil, err
	}
	length := binary.BigEndian.Uint32(frame[:4])
	sum := binary.BigEndian.Uint32(frame[4:])
	// An empty record's frame would be eight zero bytes (CRC32C of nothing
	// is zero) — indistinguishable from a zeroed gap left by dropped pages,
	// a sparse hole, or an unwritten tail. Append refuses empty payloads,
	// so a zero-length frame here is always damage, never data.
	if length == 0 || length > MaxRecord {
		return nil, errTorn
	}
	if cap(buf) < int(length) {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = errTorn
		}
		return nil, err
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		return nil, errTorn
	}
	return buf, nil
}

// rotate syncs and closes the current segment and starts the next one.
// Failures that leave durability in doubt (a failed fsync of either
// segment, an unverifiable directory sync) poison the log; a failed
// creation of the next segment — the way ENOSPC usually lands at a
// rotation boundary — reattaches the sealed tail segment instead, so the
// log stays usable and the next append simply retries the rotation.
func (l *Log) rotate() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			// fsyncgate: the kernel may have dropped the dirty pages; a
			// retried fsync would report success without persisting them.
			l.fail = fmt.Errorf("wal: fsync failed sealing segment, log poisoned: %w", err)
			return l.fail
		}
		if err := l.f.Close(); err != nil {
			l.fail = fmt.Errorf("wal: closing sealed segment, log poisoned: %w", err)
			return l.fail
		}
		l.f = nil
	}
	// abort backs out of a failed rotation without poisoning: reopen the
	// sealed tail segment for appends (every byte in it is synced, so
	// nothing acknowledged is at risk) and report the cause. Only if even
	// that fails is the log dead.
	abort := func(cause error) error {
		if len(l.segs) == 0 {
			return cause
		}
		f, err := l.fs.OpenFile(l.segs[len(l.segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			l.fail = fmt.Errorf("wal: rotation failed (%v) and tail segment would not reopen, log poisoned: %w", cause, err)
			return l.fail
		}
		l.f = f
		return cause
	}
	seq := 1
	if n := len(l.segs); n > 0 {
		// Recover the sequence number from the newest file name so
		// compaction gaps never reuse a name.
		var cur int
		if _, err := fmt.Sscanf(filepath.Base(l.segs[n-1].path), "wal-%08d.seg", &cur); err == nil {
			seq = cur + 1
		}
	}
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%08d.seg", seq))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return abort(fmt.Errorf("wal: %w", err))
	}
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.BigEndian.PutUint64(hdr[len(magic):], l.count)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		l.fs.Remove(path)
		return abort(fmt.Errorf("wal: %w", err))
	}
	// The new segment (file + header) must be durable before rotation
	// completes: Compact may later unlink every predecessor, and if the
	// creation were still only in the page cache a crash could durably
	// lose this segment while keeping those unlinks — leaving a log whose
	// only surviving segment is torn, which restarts as index 0 beneath a
	// snapshot that claims more. One fsync per rotation is noise next to
	// the per-append policy.
	if err := f.Sync(); err != nil {
		// The new segment holds no records yet, so a failed fsync here
		// risks nothing acknowledged: drop the file and back out.
		f.Close()
		l.fs.Remove(path)
		return abort(fmt.Errorf("wal: %w", err))
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		// Directory state is now unknowable: the new entry (and the header
		// fsync's claim) may or may not be durable. Fail-stop.
		f.Close()
		l.fail = fmt.Errorf("wal: syncing directory %s, log poisoned: %w", l.dir, err)
		return l.fail
	}
	l.f = f
	l.fSize = int64(headerSize)
	l.segs = append(l.segs, segment{path: path, first: l.count})
	return nil
}

// Append adds one record and applies the fsync policy. It returns the
// record's global index (0-based). A failed or short frame write is rolled
// back (the segment is truncated to the last record boundary) and reported
// without poisoning the log — transient conditions like ENOSPC stay
// retryable once the cause clears; only a failed rollback, or any failed
// fsync, is fail-stop.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.fail != nil {
		return 0, l.fail
	}
	if l.closed {
		return 0, errors.New("wal: log closed")
	}
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), MaxRecord)
	}
	if len(payload) == 0 {
		// See readRecord: an empty record's frame is all zeros, which
		// recovery must be free to treat as a torn or dropped region.
		return 0, errors.New("wal: empty records are not representable")
	}
	if l.fSize >= l.segBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	buf := make([]byte, frameSize+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameSize:], payload)
	if n, err := l.f.Write(buf); err != nil {
		if n > 0 {
			// A partial frame reached the file: cut it back to the record
			// boundary so the segment never ends mid-frame on disk. The
			// offset must rewind too — freshly rotated segments are not
			// opened O_APPEND, and writing at the stale offset after a
			// truncate would leave a zero hole that replays as a phantom
			// empty record.
			if terr := l.f.Truncate(l.fSize); terr != nil {
				l.fail = fmt.Errorf("wal: append failed (%v) and rollback truncate failed, log poisoned: %w", err, terr)
				return 0, l.fail
			}
			if _, serr := l.f.Seek(l.fSize, io.SeekStart); serr != nil {
				l.fail = fmt.Errorf("wal: append failed (%v) and rollback seek failed, log poisoned: %w", err, serr)
				return 0, l.fail
			}
		}
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.fSize += int64(len(buf))
	idx := l.count
	l.count++
	l.dirty = true
	if err := l.Flush(); err != nil {
		return 0, err
	}
	return idx, nil
}

// Flush syncs outstanding appends when the fsync policy makes a sync due:
// at once under SyncAlways, once Interval has passed since the last sync
// under SyncInterval, never under SyncNever. It is the log's one rule for
// when a dirty log must reach stable storage; Append applies it to every
// record.
func (l *Log) Flush() error {
	if l.fail != nil {
		return l.fail
	}
	due := l.policy == SyncAlways ||
		l.policy == SyncInterval && l.now().Sub(l.lastSync) >= l.interval
	if l.closed || !l.dirty || !due {
		return nil
	}
	return l.sync()
}

func (l *Log) sync() error {
	if err := l.f.Sync(); err != nil {
		// fsyncgate: after a failed fsync the kernel may drop the dirty
		// pages, so a retried fsync would "succeed" without the data ever
		// reaching stable storage. The only honest response is fail-stop:
		// poison the log so every later Append/Sync returns this error
		// instead of acknowledging writes that cannot be made durable.
		l.fail = fmt.Errorf("wal: fsync failed, log poisoned (dirty pages may be dropped; a retry would lie): %w", err)
		return l.fail
	}
	l.dirty = false
	l.lastSync = l.now()
	return nil
}

// Sync flushes outstanding appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	if l.fail != nil {
		return l.fail
	}
	if l.closed || !l.dirty {
		return nil
	}
	return l.sync()
}

// Err returns the sticky poison error, or nil while the log is healthy.
// Once set (a failed fsync, an unrecoverable rotation or rollback) it never
// clears: the process must restart and recover from what is durable.
func (l *Log) Err() error { return l.fail }

// Count returns the global index of the next record to be appended — i.e.
// how many records the log has ever held (compacted ones included).
func (l *Log) Count() uint64 { return l.count }

// First returns the global index of the oldest record still covered by a
// live segment (records below it were compacted away). A replay from any
// index in [First, Count] sees every surviving record it asks for; callers
// holding a snapshot position below First have a gap.
func (l *Log) First() uint64 { return l.segs[0].first }

// Segments returns how many live segment files back the log.
func (l *Log) Segments() int { return len(l.segs) }

// Close syncs and closes the current segment. Further appends fail. A
// poisoned log closes its file descriptor but reports the poison error —
// it must not run a final fsync whose "success" would be a lie.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if l.fail != nil {
		if l.f != nil {
			l.f.Close()
		}
		return l.fail
	}
	if l.dirty {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	return l.f.Close()
}

// Compact removes whole segments every record of which has index < upTo —
// typically the records covered by a durable snapshot. The newest segment
// is always kept (it is the append target). Compaction never splits a
// segment, so some covered records may survive; that only costs replay
// time, never correctness.
func (l *Log) Compact(upTo uint64) error {
	for len(l.segs) > 1 && l.segs[1].first <= upTo {
		if err := l.fs.Remove(l.segs[0].path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.segs = l.segs[1:]
	}
	return nil
}

// ReplayBytes iterates the valid record prefix of one raw segment image
// (header plus framed records), calling fn for each payload. It never
// panics on arbitrary input and always terminates: the first framing or
// checksum violation ends the iteration, mirroring what Open keeps and a
// Follower yields from a real file. It reports how many records were
// yielded. The fuzz harness drives this directly.
func ReplayBytes(data []byte, fn func(payload []byte) error) (int, error) {
	if len(data) < headerSize || string(data[:len(magic)]) != magic {
		return 0, nil
	}
	r := &sliceReader{data: data[headerSize:]}
	n := 0
	var buf []byte
	for {
		payload, err := readRecord(r, buf)
		if err != nil {
			return n, nil
		}
		buf = payload
		if fn != nil {
			if err := fn(payload); err != nil {
				return n, err
			}
		}
		n++
	}
}

// sliceReader is an allocation-free bytes reader for ReplayBytes.
type sliceReader struct {
	data []byte
	off  int
}

func (s *sliceReader) Read(p []byte) (int, error) {
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	n := copy(p, s.data[s.off:])
	s.off += n
	return n, nil
}
