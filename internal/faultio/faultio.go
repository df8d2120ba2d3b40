// Package faultio abstracts the write side of the filesystem so that
// durability code (internal/persist, internal/wal) can be driven
// through a fault injector in tests. The production implementation
// (OS) delegates straight to package os; the Injector wraps any FS
// and fails, short-writes, or "crashes" (refuses every further
// operation, as a killed process would) at the Nth operation.
//
// Only mutating operations go through the interface — reads are never
// fault-injected, because recovery code must be able to inspect
// whatever state a crash left behind.
package faultio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// File is the write-side file handle durability code needs: write,
// make durable, close.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the mutating slice of the filesystem. Every method maps 1:1
// onto the os function of the same name; SyncDir is the POSIX
// open-the-directory-and-fsync idiom that makes a rename durable.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm os.FileMode) error
	RemoveAll(path string) error
	SyncDir(dir string) error
}

// OS is the production filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileAtomic publishes a file crash-safely: write streams the
// content into path.tmp, which is fsynced, closed, renamed over path,
// and then the directory is fsynced so the rename itself is durable.
// A crash at any step leaves path holding either its previous content
// or the complete new content, never a torn file. With fsync false
// both fsyncs are skipped: the publish is still atomic against a
// process crash, but not against power loss. On any failure up to and
// including the rename the temp file is removed.
func WriteFileAtomic(fsys FS, path string, fsync bool, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp) // best effort: a crashed process leaves it too
		return err
	}
	if fsync {
		return fsys.SyncDir(filepath.Dir(path))
	}
	return nil
}

// ErrInjected marks every failure produced by an Injector, so tests
// can tell injected faults from real ones.
var ErrInjected = errors.New("faultio: injected fault")

// Mode selects what happens when the Injector's operation counter
// reaches At.
type Mode int

const (
	// ModeFail makes exactly the At-th operation return ErrInjected;
	// every other operation succeeds. This models a transient error
	// (disk full, permission revoked) the caller should degrade on.
	ModeFail Mode = iota
	// ModeShortWrite makes the At-th operation, if it is a write,
	// persist only the first half of its bytes before failing; every
	// later operation fails too. This models a torn write followed by
	// process death.
	ModeShortWrite
	// ModeCrash makes the At-th and every later operation fail with
	// no side effect, as if the process had been killed just before
	// the operation.
	ModeCrash
)

// Injector wraps an FS and injects one fault at the At-th mutating
// operation (1-based; 0 disables injection — the Injector then only
// counts). Operations are counted process-wide across all files
// opened through the Injector: OpenFile, Rename, Remove, Truncate,
// MkdirAll, RemoveAll, SyncDir, and each Write, Sync and Close on a
// returned File count as one operation each.
//
// A typical sweep does a dry run with At == 0 to learn the total
// operation count, then replays the workload once per crash point.
type Injector struct {
	Base FS
	Mode Mode
	At   int

	mu   sync.Mutex
	ops  int
	dead bool
}

type action int

const (
	actProceed action = iota
	actFail           // fail this op, later ops unaffected (ModeFail)
	actTear           // short-write this op, then dead (ModeShortWrite)
	actDead           // fail this and all later ops (ModeCrash / post-tear)
)

// begin accounts one operation and decides its fate.
func (in *Injector) begin() action {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	if in.dead {
		return actDead
	}
	if in.At <= 0 || in.ops != in.At {
		return actProceed
	}
	switch in.Mode {
	case ModeFail:
		return actFail
	case ModeShortWrite:
		in.dead = true
		return actTear
	default:
		in.dead = true
		return actDead
	}
}

// Ops returns the number of operations counted so far.
func (in *Injector) Ops() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Crashed reports whether the injector has entered the dead state
// (ModeShortWrite or ModeCrash fired).
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dead
}

func (in *Injector) simple(op string, fn func() error) error {
	switch in.begin() {
	case actProceed:
		return fn()
	default:
		return fmt.Errorf("%s: %w", op, ErrInjected)
	}
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	switch in.begin() {
	case actProceed:
		f, err := in.Base.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &faultFile{in: in, f: f}, nil
	default:
		return nil, fmt.Errorf("open %s: %w", name, ErrInjected)
	}
}

func (in *Injector) Rename(oldpath, newpath string) error {
	return in.simple("rename", func() error { return in.Base.Rename(oldpath, newpath) })
}
func (in *Injector) Remove(name string) error {
	return in.simple("remove", func() error { return in.Base.Remove(name) })
}
func (in *Injector) Truncate(name string, size int64) error {
	return in.simple("truncate", func() error { return in.Base.Truncate(name, size) })
}
func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	return in.simple("mkdirall", func() error { return in.Base.MkdirAll(path, perm) })
}
func (in *Injector) RemoveAll(path string) error {
	return in.simple("removeall", func() error { return in.Base.RemoveAll(path) })
}
func (in *Injector) SyncDir(dir string) error {
	return in.simple("syncdir", func() error { return in.Base.SyncDir(dir) })
}

// faultFile routes every Write/Sync/Close through the injector.
type faultFile struct {
	in *Injector
	f  File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	switch ff.in.begin() {
	case actProceed:
		return ff.f.Write(p)
	case actTear:
		// Torn write: half the bytes land, then the process dies.
		n, err := ff.f.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("write: %w", ErrInjected)
	default:
		return 0, fmt.Errorf("write: %w", ErrInjected)
	}
}

func (ff *faultFile) Sync() error {
	return ff.in.simple("sync", ff.f.Sync)
}

func (ff *faultFile) Close() error {
	switch ff.in.begin() {
	case actProceed:
		return ff.f.Close()
	default:
		// A crashed process still releases its descriptors: close the
		// underlying file so temp files are not left open, but report
		// the injected failure.
		_ = ff.f.Close()
		return fmt.Errorf("close: %w", ErrInjected)
	}
}
