package faultinject

// Filesystem fault injection for fsutil.WriteFileAtomic, the one writer
// behind every resume manifest and CLI output file. An FSPlan wraps an
// fsutil.FS and fails chosen operations — short writes, ENOSPC, rename
// errors, remove errors — on the exact calls the atomic-replace protocol
// depends on. Like Plan, an FSPlan is inert until wrapped around a live
// FS, and Triggered lets tests assert the faults actually fired.
//
// Operations are counted 1-based per kind across the whole plan (write #1
// is the first Write to a temp file whose path contains PathSubstr, and
// so on), so a test that serialises its writes can aim a fault at one
// specific call.

import (
	"fmt"
	"io"
	"io/fs"
	"strings"
	"sync"
	"syscall"

	"repro/internal/fsutil"
)

// FSPlan describes filesystem faults to inject into atomic file writes.
// The zero value injects nothing. Fault fields name the 1-based
// occurrence of the operation that fails; 0 disables that fault.
type FSPlan struct {
	// PathSubstr restricts counting and faulting to paths containing this
	// substring ("" matches everything). Temp files carry their target's
	// base name, so "MANIFEST" matches both a manifest and its temp.
	PathSubstr string

	// ShortWriteAt makes the Nth matching Write persist only the first
	// half of its buffer and return io.ErrShortWrite — a torn write.
	ShortWriteAt int
	// WriteErrAt makes the Nth matching Write fail with ENOSPC before
	// writing anything.
	WriteErrAt int
	// RenameErrAt makes the Nth matching Rename fail with EIO, breaking
	// the atomic install of the finished temp file.
	RenameErrAt int
	// RemoveErrAt makes the Nth matching Remove fail with EIO, so the
	// cleanup of a failed write leaves its temp file on disk.
	RemoveErrAt int

	mu     sync.Mutex
	counts map[string]int
	hits   []string
}

// Wrap returns an FS that applies the plan's faults on top of inner.
func (p *FSPlan) Wrap(inner fsutil.FS) fsutil.FS {
	return &faultFS{plan: p, inner: inner}
}

// Triggered returns descriptions of the faults that actually fired, in
// firing order.
func (p *FSPlan) Triggered() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.hits...)
}

// tick counts one occurrence of op on path, returning its 1-based index,
// or 0 when the path is outside the plan's scope.
func (p *FSPlan) tick(op, path string) int {
	if p.PathSubstr != "" && !strings.Contains(path, p.PathSubstr) {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.counts == nil {
		p.counts = make(map[string]int)
	}
	p.counts[op]++
	return p.counts[op]
}

// fire reports whether occurrence n is the one fault `at` targets, and
// records the hit if so.
func (p *FSPlan) fire(op, path string, n, at int) bool {
	if at <= 0 || n == 0 || n != at {
		return false
	}
	p.mu.Lock()
	p.hits = append(p.hits, fmt.Sprintf("%s:%s#%d", op, path, n))
	p.mu.Unlock()
	return true
}

type faultFS struct {
	plan  *FSPlan
	inner fsutil.FS
}

func (f *faultFS) CreateTemp(dir, pattern string) (fsutil.File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{plan: f.plan, inner: file}, nil
}

func (f *faultFS) Stat(path string) (fs.FileInfo, error) { return f.inner.Stat(path) }

func (f *faultFS) Rename(oldpath, newpath string) error {
	if n := f.plan.tick("rename", newpath); f.plan.fire("rename", newpath, n, f.plan.RenameErrAt) {
		return &fs.PathError{Op: "rename", Path: newpath, Err: syscall.EIO}
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(path string) error {
	if n := f.plan.tick("remove", path); f.plan.fire("remove", path, n, f.plan.RemoveErrAt) {
		return &fs.PathError{Op: "remove", Path: path, Err: syscall.EIO}
	}
	return f.inner.Remove(path)
}

type faultFile struct {
	plan  *FSPlan
	inner fsutil.File
}

func (f *faultFile) Write(b []byte) (int, error) {
	path := f.inner.Name()
	n := f.plan.tick("write", path)
	if f.plan.fire("write", path, n, f.plan.ShortWriteAt) {
		// Persist half the buffer for real: the torn bytes must actually
		// be on disk for the tests to check they never reach the target.
		w, _ := f.inner.Write(b[:len(b)/2])
		return w, io.ErrShortWrite
	}
	if f.plan.fire("write", path, n, f.plan.WriteErrAt) {
		return 0, &fs.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
	}
	return f.inner.Write(b)
}

func (f *faultFile) Close() error                 { return f.inner.Close() }
func (f *faultFile) Name() string                 { return f.inner.Name() }
func (f *faultFile) Chmod(mode fs.FileMode) error { return f.inner.Chmod(mode) }
