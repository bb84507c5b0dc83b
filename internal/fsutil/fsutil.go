// Package fsutil holds the one file-writing primitive the CLIs and the
// resumable runners share.
package fsutil

import (
	"io"
	"os"
	"path/filepath"
)

// File is the part of *os.File WriteFileAtomicFS writes a temp file
// through.
type File interface {
	io.WriteCloser
	Name() string
}

// FS is the filesystem surface WriteFileAtomicFS depends on. OS() is the
// real one; the fault-injection harness (internal/faultinject) wraps it
// to fail chosen writes, renames and removes.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
}

type osFS struct{}

// OS returns the FS backed by the os package.
func OS() FS { return osFS{} }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }

// WriteFileAtomic writes a file through write via a temp file in the
// same directory, then renames it over path, so an interrupt, crash or
// error mid-write never leaves a truncated file at path. On any failure
// the temp file is removed and path is left as it was.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return WriteFileAtomicFS(OS(), path, write)
}

// WriteFileAtomicFS is WriteFileAtomic on fsys.
func WriteFileAtomicFS(fsys FS, path string, write func(io.Writer) error) error {
	f, err := fsys.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(f.Name(), path)
	}
	if err != nil {
		fsys.Remove(f.Name())
	}
	return err
}
