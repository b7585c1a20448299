package risk

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/hpcfail/hpcfail/internal/iofault"
	"github.com/hpcfail/hpcfail/internal/wal"
)

// segHeader is a WAL segment header's size: the 8-byte magic and the
// big-endian index of the segment's first record.
const segHeader = 16

// tapFS watches a WAL directory's reads while armed: how many bytes came
// from past a segment's header (record bytes) or from within it, and how
// many directory listings were taken. beforeList, when set, runs ahead of
// every armed listing with that listing's 1-based ordinal.
type tapFS struct {
	iofault.FS
	armed       atomic.Bool
	recordBytes atomic.Int64
	headerBytes atomic.Int64
	lists       atomic.Int64
	beforeList  func(n int64)
}

func (fs *tapFS) ReadDir(name string) ([]os.DirEntry, error) {
	if fs.armed.Load() {
		n := fs.lists.Add(1)
		if fs.beforeList != nil {
			fs.beforeList(n)
		}
	}
	return fs.FS.ReadDir(name)
}

func (fs *tapFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Ext(name) != ".seg" {
		return f, err
	}
	return &tapFile{File: f, fs: fs}, nil
}

// tapFile tracks its offset so each read is billed to the header or to the
// records.
type tapFile struct {
	iofault.File
	fs  *tapFS
	off int64
}

func (f *tapFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	if f.fs.armed.Load() {
		hdr := min(max(segHeader-f.off, 0), int64(n))
		f.fs.headerBytes.Add(hdr)
		f.fs.recordBytes.Add(int64(n) - hdr)
	}
	f.off += int64(n)
	return n, err
}

func (f *tapFile) Seek(offset int64, whence int) (int64, error) {
	off, err := f.File.Seek(offset, whence)
	if err == nil {
		f.off = off
	}
	return off, err
}

// caughtUpStandby writes n events through a leader over dir (small
// segments, so the log spans several), lets a standby reading through fs
// drain them, and closes the leader, as a kill would leave it.
func caughtUpStandby(t *testing.T, dir string, fs iofault.FS, n int) *Standby {
	t.Helper()
	leader, _, err := OpenJournal(JournalConfig{Engine: testEngine(t), WAL: wal.Options{Dir: dir, SegmentBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStandby(StandbyConfig{Dir: dir, Engine: testEngine(t), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range liveEvents(n) {
		if err := leader.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	if leader.WALSegments() < 3 {
		t.Fatalf("leader wrote %d segments, the test needs several", leader.WALSegments())
	}
	if got, err := sb.Catchup(); err != nil || got != n {
		t.Fatalf("Catchup = %d, %v, want %d", got, err, n)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	return sb
}

// TestStandbyPromoteReadsNoRecords: promoting a standby that has already
// drained the log costs the unread tail, not the history. With nothing left
// to read, Promote takes directory listings and segment headers and not
// one record byte.
func TestStandbyPromoteReadsNoRecords(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	fs := &tapFS{FS: iofault.Disk}
	sb := caughtUpStandby(t, dir, fs, n)

	fs.armed.Store(true)
	j, err := sb.Promote(nil, wal.Options{SegmentBytes: 256}, nil)
	fs.armed.Store(false)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer j.Close()
	if j.WALCount() != n {
		t.Fatalf("promoted WALCount = %d, want %d", j.WALCount(), n)
	}
	if got := fs.recordBytes.Load(); got != 0 {
		t.Errorf("Promote read %d record bytes from a caught-up log, want 0", got)
	}
	if fs.lists.Load() == 0 || fs.headerBytes.Load() == 0 {
		t.Errorf("Promote took %d listings and read %d header bytes; the tap sees nothing", fs.lists.Load(), fs.headerBytes.Load())
	}

	// The tap does see records: a cold standby's catchup reads them all.
	fs.armed.Store(true)
	fresh, err := NewStandby(StandbyConfig{Dir: dir, Engine: testEngine(t), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Catchup(); err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(false)
	if fs.recordBytes.Load() == 0 {
		t.Error("a cold catchup read no record bytes through the tap")
	}
}

// walFrame frames payload as the log stores a record: length, CRC32C,
// payload.
func walFrame(payload []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload...)
}

// TestStandbyPromoteAppliesLateFrame: a whole record that becomes readable
// after the standby's final catchup — whichever directory listing of
// Promote it lands before — is applied by the promoted leader, and stays
// in the log: never truncated, never left unread under the next append.
func TestStandbyPromoteAppliesLateFrame(t *testing.T) {
	const n = 40
	events := liveEvents(n + 2)
	late, next := events[n], events[n+1]
	twin := testEngine(t)
	for _, f := range events {
		if err := twin.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
	want := snapJSON(t, twin)
	frame := walFrame(EncodeEvent(late))

	for k := int64(1); ; k++ {
		dir := t.TempDir()
		fs := &tapFS{FS: iofault.Disk}
		sb := caughtUpStandby(t, dir, fs, n)
		names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(names) == 0 {
			t.Fatalf("segments: %v, %v", names, err)
		}
		newest := names[len(names)-1]
		fi, err := os.Stat(newest)
		if err != nil {
			t.Fatal(err)
		}
		var wrote bool
		fs.beforeList = func(i int64) {
			if i != k {
				return
			}
			wrote = true
			f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			if _, err := f.Write(frame); err != nil {
				t.Error(err)
			}
		}
		fs.armed.Store(true)
		j, err := sb.Promote(nil, wal.Options{SegmentBytes: 256}, nil)
		fs.armed.Store(false)
		if !wrote {
			if err != nil {
				t.Fatalf("Promote: %v", err)
			}
			j.Close()
			if k < 3 {
				t.Fatalf("Promote took only %d listings; the sweep covers nothing", k-1)
			}
			t.Logf("swept a late frame over %d listings", k-1)
			return
		}
		if err != nil {
			t.Fatalf("frame before listing %d: Promote: %v", k, err)
		}
		if j.WALCount() != n+1 || sb.Applied() != n+1 {
			t.Fatalf("frame before listing %d: WALCount = %d, Applied = %d, want %d", k, j.WALCount(), sb.Applied(), n+1)
		}
		if got, err := os.Stat(newest); err != nil || got.Size() != fi.Size()+int64(len(frame)) {
			t.Fatalf("frame before listing %d: %s lost the frame (%v, %v)", k, newest, got, err)
		}
		// The promoted leader appends after the late record, and its own
		// recovery reads both in order.
		if err := j.Observe(next); err != nil {
			t.Fatal(err)
		}
		if got := snapJSON(t, j.Engine()); got != want {
			t.Fatalf("frame before listing %d: promoted engine != twin:\n%s\n%s", k, got, want)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		re, _ := openTestJournal(t, dir, nil)
		if got := snapJSON(t, re.Engine()); re.WALCount() != n+2 || got != want {
			t.Fatalf("frame before listing %d: recovery counts %d records:\n%s\n%s", k, re.WALCount(), got, want)
		}
		re.Close()
	}
}
