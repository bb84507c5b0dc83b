package main

// Tests against the real tcsim binary: flag validation exit codes and
// the -benchfmt snapshot contract.

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/benchfmt"
)

var binOnce struct {
	sync.Once
	path string
	err  error
}

// buildBinary compiles cmd/tcsim once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tcsim-test-*")
		if err != nil {
			binOnce.err = err
			return
		}
		bin := filepath.Join(dir, "tcsim")
		out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/tcsim").CombinedOutput()
		if err != nil {
			binOnce.err = fmt.Errorf("go build tcsim: %v\n%s", err, out)
			return
		}
		binOnce.path = bin
	})
	if binOnce.err != nil {
		t.Fatal(binOnce.err)
	}
	return binOnce.path
}

// exitCode runs tcsim with args and returns its exit status and output.
func exitCode(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(buildBinary(t), args...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("tcsim %v: %v", args, err)
	return 0, ""
}

// TestUsageErrorsExit2: the retired upload and benchjson flags are
// unknown, -commit without -benchfmt has nothing to tag, and -resume
// would replay experiments that record no telemetry for -sites or
// -telemetry. All fail before any experiment runs.
func TestUsageErrorsExit2(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "table2", "-upload", "http://127.0.0.1:1", "-commit", "abc"}, "flag provided but not defined: -upload"},
		{[]string{"-exp", "table2", "-outbox", dir}, "flag provided but not defined: -outbox"},
		{[]string{"-exp", "table2", "-benchjson", filepath.Join(dir, "b.json")}, "flag provided but not defined: -benchjson"},
		{[]string{"-exp", "table2", "-commit", "abc"}, "-commit only makes sense with -benchfmt"},
		{[]string{"-exp", "table4", "-resume", filepath.Join(dir, "m.json"), "-sites"}, "-resume cannot be combined with -telemetry or -sites"},
		{[]string{"-exp", "table4", "-resume", filepath.Join(dir, "m.json"), "-telemetry", filepath.Join(dir, "t.json")}, "-resume cannot be combined with -telemetry or -sites"},
	} {
		code, out := exitCode(t, tc.args...)
		if code != 2 || !strings.Contains(out, tc.want) {
			t.Errorf("tcsim %v: exit %d, want 2 with %q; output:\n%s", tc.args, code, tc.want, out)
		}
	}
}

// TestBenchfmtSnapshot: -count 2 -warmup 1 records exactly two result
// lines, each tagged with the commit and the machine identity.
func TestBenchfmtSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	code, out := exitCode(t, "-exp", "table2", "-n", "200000", "-count", "2", "-warmup", "1",
		"-benchfmt", path, "-commit", "abc", "-quiet")
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results, probs, err := benchfmt.ReadAll(f, path)
	if err != nil || len(probs) != 0 {
		t.Fatalf("reading snapshot: err %v, problems %v", err, probs)
	}
	if len(results) != 2 {
		t.Fatalf("snapshot has %d results, want 2", len(results))
	}
	for _, r := range results {
		if r.FullName != "BenchmarkSuite/exp=table2" {
			t.Errorf("result name %q, want BenchmarkSuite/exp=table2", r.FullName)
		}
		if v, _ := r.Lookup("commit"); v != "abc" {
			t.Errorf("commit = %q, want abc", v)
		}
		for _, k := range benchfmt.MachineKeys {
			if v, ok := r.Lookup(k); !ok || v == "" {
				t.Errorf("machine key %q missing from the snapshot", k)
			}
		}
	}
}
