// Package fsutil holds the one file-writing primitive the CLIs and the
// resumable runners share.
package fsutil

import (
	"errors"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// File is the part of *os.File WriteFileAtomicFS writes a temp file
// through.
type File interface {
	io.WriteCloser
	Name() string
	Chmod(mode fs.FileMode) error
}

// FS is the filesystem surface WriteFileAtomicFS depends on. OS() is the
// real one; the fault-injection harness (internal/faultinject) wraps it
// to fail chosen writes, renames and removes.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Stat(path string) (fs.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
}

type osFS struct{}

// OS returns the FS backed by the os package.
func OS() FS { return osFS{} }

// CreateTemp creates a new file in dir, its name pattern with the last
// "*" replaced by a random string, with the mode os.Create gives a new
// file: 0666 less the umask.
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	prefix, suffix := pattern, ""
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	for range 10000 {
		name := filepath.Join(dir, prefix+strconv.FormatUint(rand.Uint64(), 36)+suffix)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if err == nil {
			return f, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
	}
	return nil, &fs.PathError{Op: "createtemp", Path: filepath.Join(dir, pattern), Err: fs.ErrExist}
}

func (osFS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }
func (osFS) Rename(oldpath, newpath string) error  { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error              { return os.Remove(path) }

// WriteFileAtomic writes a file through write via a temp file in the
// same directory, then renames it over path, so an interrupt, crash or
// error mid-write never leaves a truncated file at path. On any failure
// the temp file is removed and path is left as it was. The file gets the
// mode writing it with os.Create would leave: an existing file's
// permissions, or 0666 less the umask for a new one.
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
	if fi, serr := fsys.Stat(path); err == nil && serr == nil && fi.Mode().IsRegular() {
		err = f.Chmod(fi.Mode().Perm())
	}
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
