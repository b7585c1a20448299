// Package iofault is the storage-fault seam for the durability layer: a
// minimal filesystem abstraction (FS / File) that the WAL, the snapshot
// writer and the journal do all their I/O through, plus fault-injecting
// implementations — a deterministic error injector (Inject) for EIO,
// ENOSPC, short writes and failed fsyncs over any backing FS, and an
// in-memory filesystem (MemFS) that models what actually survives a crash
// (nothing is durable until fsync; directory entries are not durable until
// the directory is fsynced; a failed fsync silently drops the dirty range —
// fsyncgate) and can halt after the Nth mutating operation so a test can
// enumerate every crash point of an I/O schedule.
//
// The production path pays one interface indirection per call and nothing
// else: Disk forwards straight to the os package.
package iofault

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// File is the handle surface the durability layer needs: sequential and
// positioned reads, appends, fsync, and truncation for torn-tail repair and
// append rollback.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Name returns the path the file was opened or created as.
	Name() string
	// Stat returns file metadata (the WAL uses only Size).
	Stat() (os.FileInfo, error)
	// Sync flushes the file's content to stable storage.
	Sync() error
	// Truncate changes the file's size (shrinking discards the tail).
	Truncate(size int64) error
}

// FS is the filesystem surface the durability layer needs. Every
// implementation must preserve os package error semantics: a missing file
// is os.ErrNotExist, an O_EXCL collision is os.ErrExist, and a full disk is
// an error wrapping syscall.ENOSPC.
type FS interface {
	// OpenFile opens name with os.OpenFile flag semantics (the subset used
	// here: O_RDONLY, O_WRONLY, O_APPEND, O_CREATE, O_EXCL, O_TRUNC).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a uniquely-named file in dir from pattern, as
	// os.CreateTemp does.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate changes the size of the named file.
	Truncate(name string, size int64) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory, sorted by name.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat returns metadata for the named file or directory.
	Stat(name string) (os.FileInfo, error)
	// ReadFile reads the whole named file.
	ReadFile(name string) ([]byte, error)
	// SyncDir fsyncs a directory so entry creations, renames and removals
	// inside it are durable, not just file contents.
	SyncDir(dir string) error
}

// Disk is the real filesystem: every call forwards to the os package.
var Disk FS = osFS{}

// Or returns fsys, or Disk when fsys is nil — the "nil means real disk"
// convention every Options struct in the durability layer uses.
func Or(fsys FS) FS {
	if fsys == nil {
		return Disk
	}
	return fsys
}

// Open opens name read-only on fsys.
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// WriteFileAtomic durably replaces path with data: a temp file named from
// pattern in path's directory, written and fsynced, renamed over path, then
// the directory fsynced. A crash at any step leaves path either wholly old
// or wholly new, never empty or torn, and once it returns the new contents
// survive a power loss. Every error path before the rename removes the
// temp, so a failed write (a full disk) strands nothing; only a crash can
// orphan one, which SweepTemps removes at the next boot.
func WriteFileAtomic(fsys FS, path, pattern string, data []byte) error {
	fsys = Or(fsys)
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	// The rename must be durable before the caller acts on it (the journal
	// compacts the WAL a snapshot covers; the registry acknowledges a
	// tenant): a crash that lost it would bring back the old contents.
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("syncing %s: %w", dir, err)
	}
	return nil
}

// SweepTemps removes the files in dir that match pattern: the temps a crash
// stranded between WriteFileAtomic's create and its rename. They are never
// valid state (the rename is what commits), and on a nearly-full disk their
// dead bytes matter. It returns how many it removed and the first error,
// sweeping on past a file it could not remove; a missing dir holds none.
func SweepTemps(fsys FS, dir, pattern string) (int, error) {
	fsys = Or(fsys)
	ents, err := fsys.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	removed := 0
	for _, e := range ents {
		if ok, _ := filepath.Match(pattern, e.Name()); !ok || e.IsDir() {
			continue
		}
		if rerr := fsys.Remove(filepath.Join(dir, e.Name())); rerr != nil {
			err = cmp.Or(err, rerr)
			continue
		}
		removed++
	}
	return removed, err
}

// IsDiskFull reports whether err is a disk-full condition (wraps
// syscall.ENOSPC anywhere in its chain). The serving layer uses it to pick
// sticky read-only degradation over a plain server fault.
func IsDiskFull(err error) bool {
	return errors.Is(err, syscall.ENOSPC)
}

// osFS is the passthrough implementation backing Disk.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
