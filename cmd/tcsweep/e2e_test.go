package main

// End-to-end interrupt/resume campaign against the real tcsweep binary:
//
//   - SIGINT drain: the run checkpoints completed shards, exits asking to
//     be resumed, and the resumed run's report is byte-identical to an
//     uninterrupted one;
//   - SIGKILL (kill -9): same contract with no chance to drain — the
//     atomic manifest protocol alone must carry the run.
//
// CI runs these as the sweep smoke job (make sweep-smoke).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// e2eSpec is small enough to finish in well under a second unthrottled,
// and has enough shards (at -shard 1) to interrupt reliably throttled.
const e2eSpec = `{
	"name": "e2e",
	"budget": 20000,
	"workloads": ["perl"],
	"grids": [
		{"family": "btb", "entries": [1024, 2048], "ways": [4]},
		{"family": "tagless", "schemes": ["gshare"], "entries": "64..1024*2", "hist_bits": [6, 9]},
		{"family": "ittage", "entries": [64], "tables": [3]}
	]
}`

var binOnce struct {
	sync.Once
	path string
	err  error
}

// buildBinary compiles cmd/tcsweep once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tcsweep-e2e-*")
		if err != nil {
			binOnce.err = err
			return
		}
		bin := filepath.Join(dir, "tcsweep")
		out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/tcsweep").CombinedOutput()
		if err != nil {
			binOnce.err = fmt.Errorf("go build tcsweep: %v\n%s", err, out)
			return
		}
		binOnce.path = bin
	})
	if binOnce.err != nil {
		t.Fatal(binOnce.err)
	}
	return binOnce.path
}

func writeSpec(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(e2eSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// referenceRun runs the spec to completion with no manifest and returns
// the rendered frontier report.
func referenceRun(t *testing.T, bin, specPath string) []byte {
	t.Helper()
	out, err := exec.Command(bin, "-spec", specPath, "-quiet", "-workers", "2").Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return out
}

// interruptAndResume starts a throttled run, fires sig once the manifest
// holds at least one shard, waits for the child to die, and returns the
// manifest path for the resumed run.
func interruptAndResume(t *testing.T, bin, specPath string, sig syscall.Signal, want []byte) {
	t.Helper()
	dir := t.TempDir()
	manifest := filepath.Join(dir, "sweep.manifest")

	cmd := exec.Command(bin,
		"-spec", specPath, "-resume", manifest, "-shard", "1",
		"-throttle", "100ms", "-workers", "2", "-quiet")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the first durable checkpoint, then kill mid-run. The
	// throttle guarantees the run is still in flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(manifest); err == nil && bytes.Contains(data, []byte(`"results"`)) {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no checkpoint appeared within 10s; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatalf("interrupted run exited 0; stderr:\n%s", stderr.String())
	}
	if sig == syscall.SIGINT && !strings.Contains(stderr.String(), "-resume") {
		t.Errorf("SIGINT drain did not suggest resuming; stderr:\n%s", stderr.String())
	}

	// The manifest must reject a different spec before the real resume.
	changed := filepath.Join(dir, "changed.json")
	if err := os.WriteFile(changed, []byte(strings.Replace(e2eSpec, "20000", "40000", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-spec", changed, "-resume", manifest, "-shard", "1", "-quiet").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "different sweep") {
		t.Fatalf("changed spec resumed against old manifest: err=%v out:\n%s", err, out)
	}

	// Resume at a different worker count; the report must be
	// byte-identical to the uninterrupted reference.
	resumeCmd := exec.Command(bin, "-spec", specPath, "-resume", manifest, "-shard", "1", "-workers", "4")
	var resumedOut, resumedErr bytes.Buffer
	resumeCmd.Stdout = &resumedOut
	resumeCmd.Stderr = &resumedErr
	if err := resumeCmd.Run(); err != nil {
		t.Fatalf("resume: %v\n%s", err, resumedErr.String())
	}
	if !strings.Contains(resumedErr.String(), "resuming:") {
		t.Errorf("resume did not report recorded shards; stderr:\n%s", resumedErr.String())
	}
	if !bytes.Equal(resumedOut.Bytes(), want) {
		t.Errorf("resumed report differs from uninterrupted run:\n--- resumed\n%s\n--- reference\n%s",
			resumedOut.String(), want)
	}
}

func TestE2ESigintResume(t *testing.T) {
	tcsweepBin := buildBinary(t)
	specPath := writeSpec(t, t.TempDir())
	want := referenceRun(t, tcsweepBin, specPath)
	interruptAndResume(t, tcsweepBin, specPath, syscall.SIGINT, want)
}

func TestE2EKillNineResume(t *testing.T) {
	tcsweepBin := buildBinary(t)
	specPath := writeSpec(t, t.TempDir())
	want := referenceRun(t, tcsweepBin, specPath)
	interruptAndResume(t, tcsweepBin, specPath, syscall.SIGKILL, want)
}

// TestCommitNeedsBenchfmt: -commit only tags -benchfmt output, so on its
// own it is a usage error, and the retired upload flags are unknown.
func TestCommitNeedsBenchfmt(t *testing.T) {
	bin := buildBinary(t)
	specPath := writeSpec(t, t.TempDir())
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", specPath, "-commit", "abc"}, "-commit only makes sense with -benchfmt"},
		{[]string{"-spec", specPath, "-upload", "http://127.0.0.1:1", "-commit", "abc"}, "flag provided but not defined: -upload"},
		{[]string{"-spec", specPath, "-outbox", t.TempDir()}, "flag provided but not defined: -outbox"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), tc.want) {
			t.Errorf("tcsweep %v: err = %v, want exit 2 with %q; output:\n%s", tc.args, err, tc.want, out)
		}
	}
}
