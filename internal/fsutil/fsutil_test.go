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
