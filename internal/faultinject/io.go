package faultinject

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/persist"
)

// ErrIO is the error injected I/O faults carry; persist must surface it
// (wrapped) instead of panicking or silently succeeding.
var ErrIO = errors.New("faultinject: injected I/O fault")

// FaultFS wraps a persist.FS and injects one write-path fault: the Nth
// mutating operation — file write, file sync, file close, create,
// rename or directory sync — fails, and every mutating operation after
// it fails too, simulating the process dying at that point. In short
// mode a Write fault first writes half its bytes (a torn write) before
// failing. Read-side operations pass through untouched, so the dying
// session's own recovery attempts see the real files.
//
// With FailAt 0 the wrapper never fails and merely counts, which sizes
// a crash-point sweep: run once cleanly, read Ops, then rerun once per
// operation index.
type FaultFS struct {
	inner   persist.FS
	failAt  int64
	short   bool
	oneShot bool
	ops     atomic.Int64
	crashed atomic.Bool
}

// NewFaultFS wraps inner so that the failAt-th mutating operation
// (1-based; 0 = never) fails — with a short write first when short is
// set — and the file system behaves as crashed from then on.
func NewFaultFS(inner persist.FS, failAt int64, short bool) *FaultFS {
	return &FaultFS{inner: inner, failAt: failAt, short: short}
}

// NewOneShotFaultFS wraps inner so that exactly the failAt-th mutating
// operation (1-based; 0 = never) fails, once; every operation before and
// after succeeds. It simulates a hiccup — EINTR, a momentary ENOSPC —
// rather than a dying process: the store latches the error, and a
// reopen on the same file system heals it.
func NewOneShotFaultFS(inner persist.FS, failAt int64) *FaultFS {
	return &FaultFS{inner: inner, failAt: failAt, oneShot: true}
}

// Ops returns the number of mutating operations seen so far.
func (f *FaultFS) Ops() int64 { return f.ops.Load() }

// Crashed reports whether the fault has fired.
func (f *FaultFS) Crashed() bool { return f.crashed.Load() }

// trip counts one mutating operation and reports whether it must fail.
func (f *FaultFS) trip() bool {
	if f.oneShot {
		return f.ops.Add(1) == f.failAt && f.failAt > 0
	}
	if f.crashed.Load() {
		return true
	}
	if n := f.ops.Add(1); f.failAt > 0 && n >= f.failAt {
		f.crashed.Store(true)
		return true
	}
	return false
}

// fault counts one mutating operation and returns the injected error it
// must fail with, or nil.
func (f *FaultFS) fault(op, name string) error {
	if !f.trip() {
		return nil
	}
	return fmt.Errorf("%s %s: %w", op, name, ErrIO)
}

func (f *FaultFS) Create(name string) (persist.File, error) {
	if err := f.fault("create", name); err != nil {
		return nil, err
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, name: name}, nil
}

func (f *FaultFS) Open(name string) (io.ReadCloser, error) { return f.inner.Open(name) }

func (f *FaultFS) Rename(oldname, newname string) error {
	if err := f.fault("rename", oldname); err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.fault("remove", name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.fault("mkdir", dir); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.fault("syncdir", dir); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile threads the fault state through an open file's own
// operations.
type faultFile struct {
	fs   *FaultFS
	f    persist.File
	name string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.fault("write", f.name); err != nil {
		if f.fs.short && len(p) > 0 {
			// A torn write: half the bytes reach the file, then the
			// "process" dies.
			n, _ := f.f.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return f.f.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.fault("sync", f.name); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *faultFile) Close() error {
	if err := f.fs.fault("close", f.name); err != nil {
		// Release the real handle regardless: a crashed process's
		// descriptors are closed by the kernel.
		f.f.Close()
		return err
	}
	return f.f.Close()
}

// FlipBit flips one bit of the file at path in place (byte offset from
// the start, bit 0..7) — a deterministic stand-in for media corruption.
// The recovery conformance suite flips every region of snapshot and WAL
// files and requires reopen to either recover a valid prefix or fail
// with persist.ErrCorrupt, never panic.
func FlipBit(path string, offset int64, bit uint) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		return err
	}
	b[0] ^= 1 << (bit % 8)
	_, err = f.WriteAt(b[:], offset)
	return err
}
