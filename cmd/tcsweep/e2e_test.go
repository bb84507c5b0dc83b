package main

// End-to-end interrupt/resume campaign against the real tcsweep binary:
//
//   - SIGINT drain: the run checkpoints completed shards, exits asking to
//     be resumed, and the resumed run's report is byte-identical to an
//     uninterrupted one;
//   - SIGKILL (kill -9): same contract with no chance to drain — the
//     atomic manifest protocol alone must carry the run;
//   - a finished run resumed again simulates nothing and reprints its
//     report and CSV.
//
// CI runs these as the sweep smoke job (make sweep-smoke).

import (
	"bytes"
	"encoding/json"
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

// TestE2EResumeFinishedManifest: rerunning a finished sweep on its
// manifest, at the same shard size, serves every shard from the manifest
// and prints the same frontier report and CSV without simulating, so a
// recorded sweep is re-rendered by resuming it.
func TestE2EResumeFinishedManifest(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	specPath := writeSpec(t, dir)
	manifest := filepath.Join(dir, "sweep.manifest")
	var reports, csvs [2][]byte
	for i := range reports {
		csvPath := filepath.Join(dir, fmt.Sprintf("points-%d.csv", i))
		telemetryPath := filepath.Join(dir, fmt.Sprintf("telemetry-%d.json", i))
		out, err := exec.Command(bin, "-spec", specPath, "-resume", manifest, "-shard", "4",
			"-workers", "2", "-quiet", "-csv", csvPath, "-telemetry", telemetryPath).Output()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		reports[i] = out
		if csvs[i], err = os.ReadFile(csvPath); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			continue
		}
		data, err := os.ReadFile(telemetryPath)
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Shards        int   `json:"shards"`
			ResumedShards int   `json:"resumed_shards"`
			Instructions  int64 `json:"instructions_simulated"`
			MemoCaptures  int64 `json:"memo_captures"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if m.Shards == 0 || m.ResumedShards != m.Shards || m.Instructions != 0 || m.MemoCaptures != 0 {
			t.Errorf("resumed finished run: %d of %d shards resumed, %d instructions simulated, %d captures; want all resumed, none simulated\n%s",
				m.ResumedShards, m.Shards, m.Instructions, m.MemoCaptures, data)
		}
	}
	if len(reports[0]) == 0 || !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("resumed report differs from the first run:\n--- resumed\n%s\n--- first\n%s", reports[1], reports[0])
	}
	if len(csvs[0]) == 0 || !bytes.Equal(csvs[0], csvs[1]) {
		t.Errorf("resumed CSV differs from the first run:\n--- resumed\n%s\n--- first\n%s", csvs[1], csvs[0])
	}
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

// TestTelemetryCountsSharedBTBs pins -telemetry's btb_shared_points on
// the smoke grid at the default width: of its 72 btb points, the 40
// whose BTB holds every taken PC of its capture, and is not the first
// such member of its btb gang and update strategy, simulate no BTB of
// their own. The run stays as fused as before: every point from a fused
// walk, no fallbacks.
func TestTelemetryCountsSharedBTBs(t *testing.T) {
	bin := buildBinary(t)
	telemetryPath := filepath.Join(t.TempDir(), "telemetry.json")
	cmd := exec.Command(bin, "-spec", "../../sweep_smoke.json", "-workers", "2", "-quiet", "-telemetry", telemetryPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("tcsweep: %v\n%s", err, out)
	}
	data, err := os.ReadFile(telemetryPath)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Points          int   `json:"points"`
		FusedPoints     int   `json:"fused_points"`
		GangFallbacks   int   `json:"gang_fallbacks"`
		BTBSharedPoints int64 `json:"btb_shared_points"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.BTBSharedPoints != 40 || m.FusedPoints != m.Points || m.GangFallbacks != 0 {
		t.Errorf("btb_shared_points %d (want 40), fused_points %d of %d, gang_fallbacks %d\n%s",
			m.BTBSharedPoints, m.FusedPoints, m.Points, m.GangFallbacks, data)
	}
}

// TestTelemetryCountsSharedTargetCaches pins -telemetry's
// tc_shared_points at one worker, where every class's first point runs
// before the rest: of the smoke grid's 568 points, 239 tagless and
// tagged points take another point's result, and of history.json's 48
// gshare points, the 24 whose history is deeper than the 9-bit index
// (12, 16 and 20 bits) take the 9-bit point's.
func TestTelemetryCountsSharedTargetCaches(t *testing.T) {
	bin := buildBinary(t)
	for spec, want := range map[string]int64{
		"../../sweep_smoke.json":             239,
		"../../examples/sweeps/history.json": 24,
	} {
		telemetryPath := filepath.Join(t.TempDir(), "telemetry.json")
		cmd := exec.Command(bin, "-spec", spec, "-workers", "1", "-quiet", "-telemetry", telemetryPath)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("tcsweep %s: %v\n%s", spec, err, out)
		}
		data, err := os.ReadFile(telemetryPath)
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			TCSharedPoints int64 `json:"tc_shared_points"`
			GangFallbacks  int   `json:"gang_fallbacks"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if m.TCSharedPoints != want || m.GangFallbacks != 0 {
			t.Errorf("%s: tc_shared_points %d (want %d), gang_fallbacks %d\n%s", spec, m.TCSharedPoints, want, m.GangFallbacks, data)
		}
	}
}
