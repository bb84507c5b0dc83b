package fsutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new" {
		t.Fatalf("read back %q, %v; want \"new\"", got, err)
	}
	assertOnlyEntry(t, dir, "out.txt")
}

// TestWriteFileAtomicMode: a new file gets the mode os.Create gives one,
// and a file written over keeps its own.
func TestWriteFileAtomicMode(t *testing.T) {
	dir := t.TempDir()
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	fresh, existing := filepath.Join(dir, "new"), filepath.Join(dir, "old")
	if err := os.WriteFile(existing, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(existing, 0o604); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{fresh, existing} {
		if err := WriteFileAtomic(path, func(w io.Writer) error {
			_, err := io.WriteString(w, "new")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for path, want := range map[string]os.FileMode{fresh: perm(t, ref.Name()), existing: 0o604} {
		if got := perm(t, path); got != want {
			t.Errorf("%s: mode %v, want %v", filepath.Base(path), got, want)
		}
	}
}

func perm(t *testing.T, path string) os.FileMode {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Mode().Perm()
}

// TestWriteFileAtomicFailureKeepsOld: a failing writer leaves the
// previous contents in place and no temp file behind.
func TestWriteFileAtomicFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "old" {
		t.Fatalf("path holds %q after a failed write, want \"old\"", got)
	}
	assertOnlyEntry(t, dir, "out.txt")
}

// TestWriteFileAtomicRenameFailure: when the rename cannot happen (the
// target is a non-empty directory) the temp file is still cleaned up.
func TestWriteFileAtomicRenameFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "busy")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, func(w io.Writer) error { return nil }); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	assertOnlyEntry(t, dir, "busy")
}

func assertOnlyEntry(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}
