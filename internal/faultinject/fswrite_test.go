package faultinject

// The atomic-writer survival suite: drive fsutil.WriteFileAtomicFS
// through injected filesystem faults on a real temp directory and pin
// down its contract:
//
//   - a write that returned nil (an acknowledged write) is at the target
//     path byte-identical, whatever faults fired around it;
//   - a write that returned an error is never half-applied — the target
//     keeps its previous contents, or stays absent if it had none;
//   - a retry of the failed write succeeds, and no temp file is left
//     behind unless the fault also broke the cleanup.
//
// Operation numbering: each write below issues one Write per chunk, so
// in TestFSPlanSurvival write #1 is body A and write #2 is body B. The
// plans aim their faults at B.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/fsutil"
)

// writeChunks atomically writes chunks to path through fsys, one Write
// per chunk.
func writeChunks(fsys fsutil.FS, path string, chunks ...string) error {
	return fsutil.WriteFileAtomicFS(fsys, path, func(w io.Writer) error {
		for _, c := range chunks {
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		return nil
	})
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

func TestFSPlanSurvival(t *testing.T) {
	cases := []struct {
		name string
		plan *FSPlan
		// wantErr is the errno/sentinel write B's failure must wrap.
		wantErr error
		// wantStray: the cleanup fails, so B's torn temp file stays on
		// disk next to the target.
		wantStray bool
	}{
		{
			name:    "short-write-rolled-back",
			plan:    &FSPlan{ShortWriteAt: 2},
			wantErr: io.ErrShortWrite,
		},
		{
			name:    "enospc",
			plan:    &FSPlan{WriteErrAt: 2},
			wantErr: syscall.ENOSPC,
		},
		{
			// A torn write whose temp file cannot be removed: the
			// half-written bytes stay on disk, but never at the target.
			name:      "torn-tail-on-disk",
			plan:      &FSPlan{ShortWriteAt: 2, RemoveErrAt: 1},
			wantErr:   io.ErrShortWrite,
			wantStray: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "results.txt")
			fsys := tc.plan.Wrap(fsutil.OS())

			bodyA := "table2 wall_ms=100.5\n"
			bodyB := "table2 wall_ms=200.5\n"
			bodyC := "table2 wall_ms=300.5\n"

			if err := writeChunks(fsys, path, bodyA); err != nil {
				t.Fatalf("write A: %v", err)
			}
			errB := writeChunks(fsys, path, bodyB)
			if errB == nil {
				t.Fatalf("write B survived the %s fault", tc.name)
			}
			if !errors.Is(errB, tc.wantErr) {
				t.Fatalf("write B error %v, want %v", errB, tc.wantErr)
			}
			if len(tc.plan.Triggered()) == 0 {
				t.Fatal("fault plan never triggered")
			}
			if got := readFile(t, path); got != bodyA {
				t.Fatalf("failed write B was half-applied: target holds %q, want %q", got, bodyA)
			}
			names := dirNames(t, dir)
			if tc.wantStray {
				if len(names) != 2 {
					t.Fatalf("directory holds %v, want the target and one stray temp", names)
				}
				stray := names[0]
				if stray == "results.txt" {
					stray = names[1]
				}
				if got, want := readFile(t, filepath.Join(dir, stray)), bodyB[:len(bodyB)/2]; got != want {
					t.Fatalf("stray temp holds %q, want the torn half %q", got, want)
				}
			} else if len(names) != 1 {
				t.Fatalf("directory holds %v after a failed write, want only results.txt", names)
			}

			// The failure is not sticky: a retry of B succeeds, and a
			// further write goes through.
			if err := writeChunks(fsys, path, bodyB); err != nil {
				t.Fatalf("retry of write B: %v", err)
			}
			if got := readFile(t, path); got != bodyB {
				t.Fatalf("after retry target holds %q, want %q", got, bodyB)
			}
			if err := writeChunks(fsys, path, bodyC); err != nil {
				t.Fatalf("write C: %v", err)
			}
			if got := readFile(t, path); got != bodyC {
				t.Fatalf("after write C target holds %q, want %q", got, bodyC)
			}
		})
	}
}

// TestFSPlanManifestRenameFailure breaks the atomic install of a resume
// manifest: a failed first install leaves no manifest at all, a failed
// replacement leaves the previous manifest byte-identical, neither
// leaves a temp file behind, and a retry on the healthy filesystem
// installs the new manifest as if nothing happened.
func TestFSPlanManifestRenameFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST.json")
	v1 := `{"done":["table1"]}` + "\n"
	v2 := `{"done":["table1","table2"]}` + "\n"

	plan := &FSPlan{PathSubstr: "MANIFEST", RenameErrAt: 1}
	err := writeChunks(plan.Wrap(fsutil.OS()), path, v1)
	if err == nil {
		t.Fatal("install survived the rename fault")
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("install error %v, want EIO", err)
	}
	if len(plan.Triggered()) == 0 {
		t.Fatal("rename fault never triggered")
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("failed first install left %v behind", names)
	}

	if err := writeChunks(fsutil.OS(), path, v1); err != nil {
		t.Fatalf("install after failed install: %v", err)
	}

	plan = &FSPlan{PathSubstr: "MANIFEST", RenameErrAt: 1}
	if err := writeChunks(plan.Wrap(fsutil.OS()), path, v2); !errors.Is(err, syscall.EIO) {
		t.Fatalf("replacement error %v, want EIO", err)
	}
	if got := readFile(t, path); got != v1 {
		t.Fatalf("failed replacement changed the manifest to %q, want %q", got, v1)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("failed replacement left %v behind, want only MANIFEST.json", names)
	}

	if err := writeChunks(fsutil.OS(), path, v2); err != nil {
		t.Fatalf("replacement retry: %v", err)
	}
	if got := readFile(t, path); got != v2 {
		t.Fatalf("manifest holds %q after retry, want %q", got, v2)
	}
}

// TestFSPlanAckedUnderRandomFaultStorm hammers one wrapped filesystem
// from several writers at once while faults land mid-file (on a write
// between chunks) and at install time (on a rename), then checks the
// global invariant: every target holds exactly the last body its writer
// had acknowledged, and no temp file survives.
func TestFSPlanAckedUnderRandomFaultStorm(t *testing.T) {
	dir := t.TempDir()
	const rounds = 4
	const writers = 4
	const writesPerRound = 10
	acked := make([]string, writers) // last body each writer saw succeed
	var faults int
	for round := 0; round < rounds; round++ {
		// A fresh plan per round, so both faults fire every round at
		// whichever writer reaches the counted call first.
		plan := &FSPlan{WriteErrAt: 5, RenameErrAt: 7}
		if round%2 == 1 {
			plan = &FSPlan{ShortWriteAt: 5, RenameErrAt: 3}
		}
		fsys := plan.Wrap(fsutil.OS())
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				path := filepath.Join(dir, fmt.Sprintf("out-%d.txt", w))
				for i := 0; i < writesPerRound; i++ {
					head := fmt.Sprintf("round=%d writer=%d i=%d\n", round, w, i)
					body := strings.Repeat("x", 64) + "\n"
					tail := "end\n"
					err := writeChunks(fsys, path, head, body, tail)
					mu.Lock()
					if err != nil {
						faults++
					} else {
						acked[w] = head + body + tail
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if got := len(plan.Triggered()); got != 2 {
			t.Fatalf("round %d: %d faults fired, want 2: %v", round, got, plan.Triggered())
		}
	}
	if faults != 2*rounds {
		t.Fatalf("%d writes failed across the storm, want %d", faults, 2*rounds)
	}
	var want []string
	for w, body := range acked {
		if body == "" {
			continue
		}
		name := fmt.Sprintf("out-%d.txt", w)
		want = append(want, name)
		if got := readFile(t, filepath.Join(dir, name)); got != body {
			t.Fatalf("%s holds %q, want its last acknowledged body %q", name, got, body)
		}
	}
	if got := dirNames(t, dir); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("directory holds %v after the storm, want %v", got, want)
	}
	t.Logf("storm: %d writers, %d faulted writes", writers, faults)
}
