package iofault

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrCrashed is returned by every operation on a MemFS once its mutating-op
// budget (CrashAfter) is exhausted — the in-test stand-in for "the machine
// lost power here". The workload under test cannot make further progress;
// the test then calls Reboot and recovers over what was durable.
var ErrCrashed = errors.New("iofault: simulated crash")

// TearMode selects what Reboot does to the write that was in flight when
// the crash hit. Real disks do not write sectors atomically, so the dirty
// tail of the last-written file may partially reach the platter.
type TearMode int

const (
	// TearNone: the in-flight write vanishes entirely (clean page-cache
	// loss).
	TearNone TearMode = iota
	// TearPartial: roughly half of the in-flight dirty tail of the
	// last-written file reaches the durable image — a torn write.
	TearPartial
	// TearBitFlip: TearPartial plus one flipped bit inside the fragment
	// that made it down — a torn write with in-flight corruption. Only
	// bytes that were never acknowledged durable are touched, so recovery
	// must reject or truncate them, never refuse to start.
	TearBitFlip
)

// MemFS is an in-memory FS that models durability the way a crash sees it:
//
//   - File writes land in a visible image (what reads return) and become
//     durable only when Sync flushes them to the file's durable image.
//   - Directory entry mutations (create, rename, remove) become durable
//     only when SyncDir flushes them — unless EagerDirSync is set, which
//     models a metadata-journaling filesystem that persists entries on its
//     own. Crash-consistency sweeps run both modes.
//   - A failed Sync has fsyncgate semantics: the dirty range is dropped —
//     the durable image gets a zero-filled gap where the data should be,
//     and the range is marked clean, so a later Sync "succeeds" without
//     ever persisting the bytes. Callers that retry instead of failing
//     stop lose acknowledged data, which is exactly what the WAL's poison
//     behaviour exists to prevent.
//   - Every mutating operation counts against an optional budget
//     (CrashAfter); the op that exceeds it, and everything after, returns
//     ErrCrashed. Reboot then discards all non-durable state (optionally
//     tearing the in-flight write) and the filesystem is usable again.
//
// Within one directory, pending entry mutations apply in FIFO order at
// SyncDir — the model cannot reorder a rename after a later remove, which
// is the one hazard WriteSnapshotFileFS's rename-then-syncdir ordering
// guards against on real disks.
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu       sync.Mutex
	files    map[string]*memNode // visible directory entries
	dirs     map[string]bool     // visible directories
	durFiles map[string]*memNode // durable directory entries
	durDirs  map[string]bool
	pending  map[string][]dirOp // per-directory entry mutations awaiting SyncDir
	eager    bool               // entries durable without SyncDir

	ops        int // mutating operations performed
	crashAfter int // budget; 0 = unlimited
	crashed    bool

	syncErr error // one-shot injected fsync failure (fsyncgate)
	tempSeq int
	lastWr  *memNode // node of the most recent write (tear target)
}

// memNode is one file's content. The visible image is data; the durable
// image is dur, which always holds exactly clean bytes: the prefix of the
// file whose durability is settled (flushed — or dropped by a failed
// fsync, in which case dur holds zeros there).
type memNode struct {
	data  []byte
	dur   []byte
	clean int
}

// dirOp is one pending directory-entry mutation.
type dirOp struct {
	name string   // full path
	node *memNode // nil = remove the entry
}

// NewMemFS returns an empty filesystem containing only the root directory.
func NewMemFS() *MemFS {
	return &MemFS{
		files:    map[string]*memNode{},
		dirs:     map[string]bool{"/": true, ".": true},
		durFiles: map[string]*memNode{},
		durDirs:  map[string]bool{"/": true, ".": true},
		pending:  map[string][]dirOp{},
	}
}

// CrashAfter arms the crash budget: the (n+1)th mutating operation from
// now, and every operation after it, fails with ErrCrashed. n <= 0 disarms.
// The op counter restarts from zero.
func (m *MemFS) CrashAfter(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops = 0
	m.crashAfter = n
	m.crashed = false
}

// Ops returns how many mutating operations have been performed since the
// filesystem was created, rebooted, or last armed with CrashAfter — a dry
// run over a workload measures its total op count for sweep enumeration.
func (m *MemFS) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Crashed reports whether the crash budget has been exhausted.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// EagerDirSync toggles whether directory-entry mutations are durable
// immediately (a metadata-journaling filesystem) instead of waiting for
// SyncDir (the strict POSIX model).
func (m *MemFS) EagerDirSync(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.eager = on
}

// FailNextSync arms a one-shot fsync failure with fsyncgate semantics: the
// next File.Sync returns err and the file's dirty range is silently
// dropped from the durable image (zero-filled) while being marked clean —
// so a retried Sync reports success without the data ever persisting.
func (m *MemFS) FailNextSync(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncErr = err
}

// countOp charges one mutating operation against the crash budget. Callers
// hold m.mu.
func (m *MemFS) countOp() error {
	if m.crashed {
		return ErrCrashed
	}
	m.ops++
	if m.crashAfter > 0 && m.ops > m.crashAfter {
		m.crashed = true
		return ErrCrashed
	}
	return nil
}

// Reboot simulates power loss and restart: every visible-but-not-durable
// byte and directory entry is discarded, the crash budget is disarmed, and
// the filesystem becomes usable again over exactly the durable image. The
// tear mode optionally lets part of the in-flight write (the dirty tail of
// the last-written file) survive, torn or bit-flipped.
func (m *MemFS) Reboot(tear TearMode) {
	m.mu.Lock()
	defer m.mu.Unlock()

	// The tear fragment comes from the node that was last written, wherever
	// its durable entry lives (it may be durable under a pre-rename name).
	var tearNode *memNode
	var tearFrag []byte
	if tear != TearNone && m.lastWr != nil {
		if dirty := m.lastWr.data[m.lastWr.clean:]; len(dirty) > 0 {
			frag := append([]byte(nil), dirty[:(len(dirty)+1)/2]...)
			if tear == TearBitFlip {
				frag[len(frag)-1] ^= 0x40
			}
			tearNode, tearFrag = m.lastWr, frag
		}
	}

	files := make(map[string]*memNode, len(m.durFiles))
	for p, n := range m.durFiles {
		img := append([]byte(nil), n.dur...)
		if n == tearNode {
			img = append(img, tearFrag...)
		}
		files[p] = &memNode{data: img, dur: append([]byte(nil), img...), clean: len(img)}
	}
	dirs := make(map[string]bool, len(m.durDirs))
	for d := range m.durDirs {
		dirs[d] = true
	}
	durFiles := make(map[string]*memNode, len(files))
	for p, n := range files {
		durFiles[p] = n
	}
	durDirs := make(map[string]bool, len(dirs))
	for d := range dirs {
		durDirs[d] = true
	}

	m.files, m.dirs = files, dirs
	m.durFiles, m.durDirs = durFiles, durDirs
	m.pending = map[string][]dirOp{}
	m.ops, m.crashAfter, m.crashed = 0, 0, false
	m.syncErr = nil
	m.lastWr = nil
}

// link queues (or, in eager mode, applies) one directory-entry mutation.
// Callers hold m.mu.
func (m *MemFS) link(name string, node *memNode) {
	if m.eager {
		if node == nil {
			delete(m.durFiles, name)
		} else {
			m.durFiles[name] = node
		}
		return
	}
	dir := filepath.Dir(name)
	m.pending[dir] = append(m.pending[dir], dirOp{name: name, node: node})
}

func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.crashed {
		return nil, &os.PathError{Op: "open", Path: name, Err: ErrCrashed}
	}
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	node, ok := m.files[name]
	switch {
	case !ok:
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		if dir := filepath.Dir(name); !m.dirs[dir] {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		if err := m.countOp(); err != nil {
			return nil, &os.PathError{Op: "create", Path: name, Err: err}
		}
		node = &memNode{}
		m.files[name] = node
		m.link(name, node)
	case flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrExist}
	case flag&os.O_TRUNC != 0 && writable:
		if err := m.countOp(); err != nil {
			return nil, &os.PathError{Op: "truncate", Path: name, Err: err}
		}
		node.truncate(0)
	}
	return &memFile{fs: m, node: node, name: name, app: flag&os.O_APPEND != 0, writable: writable}, nil
}

func (m *MemFS) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if m.crashed {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: ErrCrashed}
	}
	if !m.dirs[dir] {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: os.ErrNotExist}
	}
	if err := m.countOp(); err != nil {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: err}
	}
	base := pattern
	m.tempSeq++
	if strings.Contains(pattern, "*") {
		base = strings.Replace(pattern, "*", fmt.Sprintf("%06d", m.tempSeq), 1)
	} else {
		base = pattern + fmt.Sprintf("%06d", m.tempSeq)
	}
	name := filepath.Join(dir, base)
	if _, exists := m.files[name]; exists {
		return nil, &os.PathError{Op: "createtemp", Path: name, Err: os.ErrExist}
	}
	node := &memNode{}
	m.files[name] = node
	m.link(name, node)
	return &memFile{fs: m, node: node, name: name, writable: true}, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	if m.crashed {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: ErrCrashed}
	}
	node, ok := m.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: os.ErrNotExist}
	}
	if err := m.countOp(); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	delete(m.files, oldpath)
	m.files[newpath] = node
	m.link(oldpath, nil)
	m.link(newpath, node)
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.crashed {
		return &os.PathError{Op: "remove", Path: name, Err: ErrCrashed}
	}
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	if err := m.countOp(); err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	delete(m.files, name)
	m.link(name, nil)
	return nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.crashed {
		return &os.PathError{Op: "truncate", Path: name, Err: ErrCrashed}
	}
	node, ok := m.files[name]
	if !ok {
		return &os.PathError{Op: "truncate", Path: name, Err: os.ErrNotExist}
	}
	if err := m.countOp(); err != nil {
		return &os.PathError{Op: "truncate", Path: name, Err: err}
	}
	node.truncate(size)
	return nil
}

func (m *MemFS) MkdirAll(path string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	if m.crashed {
		return &os.PathError{Op: "mkdir", Path: path, Err: ErrCrashed}
	}
	if m.dirs[path] {
		return nil
	}
	// Directory creation is modeled as immediately durable: losing an empty
	// directory across a crash is benign for every caller here (they
	// MkdirAll on open), and it keeps the crash-point space focused on the
	// mutations that can lose data.
	if err := m.countOp(); err != nil {
		return &os.PathError{Op: "mkdir", Path: path, Err: err}
	}
	for p := path; ; p = filepath.Dir(p) {
		if m.dirs[p] {
			break
		}
		m.dirs[p] = true
		m.durDirs[p] = true
	}
	return nil
}

func (m *MemFS) ReadDir(name string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.crashed {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: ErrCrashed}
	}
	if !m.dirs[name] {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: os.ErrNotExist}
	}
	var ents []os.DirEntry
	for p, n := range m.files {
		if filepath.Dir(p) == name {
			ents = append(ents, memDirEntry{name: filepath.Base(p), size: int64(len(n.data))})
		}
	}
	for d := range m.dirs {
		if d != name && filepath.Dir(d) == name {
			ents = append(ents, memDirEntry{name: filepath.Base(d), dir: true})
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
	return ents, nil
}

func (m *MemFS) Stat(name string) (os.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.crashed {
		return nil, &os.PathError{Op: "stat", Path: name, Err: ErrCrashed}
	}
	if n, ok := m.files[name]; ok {
		return memFileInfo{name: filepath.Base(name), size: int64(len(n.data))}, nil
	}
	if m.dirs[name] {
		return memFileInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.crashed {
		return nil, &os.PathError{Op: "read", Path: name, Err: ErrCrashed}
	}
	n, ok := m.files[name]
	if !ok {
		return nil, &os.PathError{Op: "read", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), n.data...), nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if m.crashed {
		return &os.PathError{Op: "syncdir", Path: dir, Err: ErrCrashed}
	}
	if !m.dirs[dir] {
		return &os.PathError{Op: "syncdir", Path: dir, Err: os.ErrNotExist}
	}
	if err := m.countOp(); err != nil {
		return &os.PathError{Op: "syncdir", Path: dir, Err: err}
	}
	for _, op := range m.pending[dir] {
		if op.node == nil {
			delete(m.durFiles, op.name)
		} else {
			m.durFiles[op.name] = op.node
		}
	}
	delete(m.pending, dir)
	return nil
}

// truncate resizes a node's visible image; shrinking below the settled
// prefix also shrinks the durable image (freed blocks are gone at once —
// the optimistic model; no caller here relies on truncate surviving).
func (n *memNode) truncate(size int64) {
	s := int(size)
	switch {
	case s < len(n.data):
		n.data = n.data[:s]
		if n.clean > s {
			n.clean = s
			n.dur = n.dur[:s]
		}
	case s > len(n.data):
		n.data = append(n.data, make([]byte, s-len(n.data))...)
	}
}

// memFile is an open handle on a MemFS node.
type memFile struct {
	fs       *MemFS
	node     *memNode
	name     string
	off      int64
	app      bool
	writable bool
	closed   bool
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if f.fs.crashed {
		return 0, &os.PathError{Op: "read", Path: f.name, Err: ErrCrashed}
	}
	if f.off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if !f.writable {
		return 0, &os.PathError{Op: "write", Path: f.name, Err: os.ErrPermission}
	}
	if err := f.fs.countOp(); err != nil {
		return 0, &os.PathError{Op: "write", Path: f.name, Err: err}
	}
	if f.app {
		f.off = int64(len(f.node.data))
	}
	if gap := f.off - int64(len(f.node.data)); gap > 0 {
		f.node.data = append(f.node.data, make([]byte, gap)...)
	}
	n := copy(f.node.data[f.off:], p)
	f.node.data = append(f.node.data, p[n:]...)
	f.off += int64(len(p))
	f.fs.lastWr = f.node
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	switch whence {
	case io.SeekStart:
		f.off = offset
	case io.SeekCurrent:
		f.off += offset
	case io.SeekEnd:
		f.off = int64(len(f.node.data)) + offset
	default:
		return 0, fmt.Errorf("iofault: bad whence %d", whence)
	}
	if f.off < 0 {
		return 0, fmt.Errorf("iofault: negative seek offset")
	}
	return f.off, nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	if err := f.fs.countOp(); err != nil {
		return &os.PathError{Op: "sync", Path: f.name, Err: err}
	}
	dirty := len(f.node.data) - f.node.clean
	if err := f.fs.syncErr; err != nil {
		// fsyncgate: the failed fsync drops the dirty range. The durable
		// image gets zeros where the data should be, and the range is
		// marked clean — a retried Sync will report success without the
		// bytes ever reaching stable storage.
		f.fs.syncErr = nil
		if dirty > 0 {
			f.node.dur = append(f.node.dur, make([]byte, dirty)...)
			f.node.clean = len(f.node.data)
		}
		return &os.PathError{Op: "sync", Path: f.name, Err: err}
	}
	if dirty > 0 {
		f.node.dur = append(f.node.dur, f.node.data[f.node.clean:]...)
		f.node.clean = len(f.node.data)
	}
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	if !f.writable {
		return &os.PathError{Op: "truncate", Path: f.name, Err: os.ErrPermission}
	}
	if err := f.fs.countOp(); err != nil {
		return &os.PathError{Op: "truncate", Path: f.name, Err: err}
	}
	f.node.truncate(size)
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	return nil
}

func (f *memFile) Stat() (os.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return nil, &os.PathError{Op: "stat", Path: f.name, Err: ErrCrashed}
	}
	return memFileInfo{name: filepath.Base(f.name), size: int64(len(f.node.data))}, nil
}

// memFileInfo / memDirEntry satisfy os.FileInfo / os.DirEntry for MemFS.
type memFileInfo struct {
	name string
	size int64
	dir  bool
}

func (i memFileInfo) Name() string { return i.name }
func (i memFileInfo) Size() int64  { return i.size }
func (i memFileInfo) Mode() iofs.FileMode {
	if i.dir {
		return iofs.ModeDir | 0o755
	}
	return 0o644
}
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return i.dir }
func (i memFileInfo) Sys() any           { return nil }

type memDirEntry struct {
	name string
	size int64
	dir  bool
}

func (e memDirEntry) Name() string { return e.name }
func (e memDirEntry) IsDir() bool  { return e.dir }
func (e memDirEntry) Type() iofs.FileMode {
	if e.dir {
		return iofs.ModeDir
	}
	return 0
}
func (e memDirEntry) Info() (iofs.FileInfo, error) {
	return memFileInfo{name: e.name, size: e.size, dir: e.dir}, nil
}
