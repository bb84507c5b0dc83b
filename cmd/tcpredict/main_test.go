package main

// Tests against the real trace CLIs: tracegen and tcasm write TCSTORE1
// files, tcpredict replays them through the same batched kernel
// sim.RunAccuracy uses, and a damaged file fails closed.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// binDir holds the tracegen, tcasm and tcpredict binaries TestMain builds.
var binDir string

func TestMain(m *testing.M) { os.Exit(runTests(m)) }

func runTests(m *testing.M) int {
	dir, err := os.MkdirTemp("", "tcpredict-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	for _, cmd := range []string{"tracegen", "tcasm", "tcpredict"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "repro/cmd/"+cmd).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", cmd, err, out)
			return 1
		}
	}
	binDir = dir
	return m.Run()
}

// run executes one of the built CLIs and returns its exit status, stdout
// and stderr.
func run(t *testing.T, cmd string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	c := exec.Command(filepath.Join(binDir, cmd), args...)
	c.Stdout, c.Stderr = &stdout, &stderr
	err := c.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("%s %v: %v", cmd, args, err)
	return 0, "", ""
}

// mustRun is run for an invocation that must exit 0.
func mustRun(t *testing.T, cmd string, args ...string) string {
	t.Helper()
	code, stdout, stderr := run(t, cmd, args...)
	if code != 0 {
		t.Fatalf("%s %v: exit %d\n%s%s", cmd, args, code, stdout, stderr)
	}
	return stdout
}

// TestTracegenRoundTrip: a tracegen file, raw or compressed, replayed by
// tcpredict reports exactly what sim.RunAccuracy reports over the same
// in-memory capture.
func TestTracegenRoundTrip(t *testing.T) {
	const n = 200_000
	dir := t.TempDir()
	raw, compressed := filepath.Join(dir, "perl.tcstore"), filepath.Join(dir, "perl-compressed.tcstore")
	mustRun(t, "tracegen", "-w", "perl", "-n", fmt.Sprint(n), "-o", raw)
	mustRun(t, "tracegen", "-w", "perl", "-n", fmt.Sprint(n), "-o", compressed, "-compress")

	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), n))
	newTC, err := buildTC("tagless", 512, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	newHist, err := buildHistory("pattern", 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		predictor string
		cfg       sim.Config
	}{
		{"btb", sim.DefaultConfig()},
		{"tagless", sim.DefaultConfig().WithTargetCache(newTC, newHist)},
	} {
		res := sim.RunAccuracy(rep, n, tc.cfg)
		if res.Instructions != n || res.Err != nil {
			t.Fatalf("%s reference run: %d instructions, err %v", tc.predictor, res.Instructions, res.Err)
		}
		for _, path := range []string{raw, compressed} {
			var want bytes.Buffer
			report(&want, path, tc.predictor, res)
			if got := mustRun(t, "tcpredict", "-trace", path, "-predictor", tc.predictor); got != want.String() {
				t.Errorf("tcpredict -trace %s -predictor %s:\n%s\nwant:\n%s", path, tc.predictor, got, want.String())
			}
		}
	}
}

// TestTcasmRoundTrip: tcpredict reads the trace file tcasm emits.
func TestTcasmRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.tcstore")
	mustRun(t, "tcasm", "-s", filepath.Join("..", "..", "examples", "asm", "dispatch.s"), "-o", path, "-n", "50000")
	out := mustRun(t, "tcpredict", "-trace", path, "-predictor", "tagless")
	if !strings.Contains(out, "(50000 instructions,") {
		t.Fatalf("tcpredict over the tcasm trace:\n%s", out)
	}
}

// TestOutputFileMode: tracegen -o and tcasm -o leave the mode writing
// the file with os.Create would: 0666 less the umask for a new file, the
// existing mode for a file written over.
func TestOutputFileMode(t *testing.T) {
	dir := t.TempDir()
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	want := mode(t, ref.Name())
	asm := filepath.Join("..", "..", "examples", "asm", "dispatch.s")
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"tracegen", []string{"-w", "perl", "-n", "1000", "-o"}},
		{"tcasm", []string{"-s", asm, "-n", "1000", "-o"}},
	} {
		fresh, existing := filepath.Join(dir, tc.cmd+".new"), filepath.Join(dir, tc.cmd+".old")
		if err := os.WriteFile(existing, []byte("an earlier trace"), 0o640); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(existing, 0o640); err != nil {
			t.Fatal(err)
		}
		mustRun(t, tc.cmd, append(tc.args, fresh)...)
		mustRun(t, tc.cmd, append(tc.args, existing)...)
		if got := mode(t, fresh); got != want {
			t.Errorf("%s -o a new file: mode %v, want %v as os.Create gives", tc.cmd, got, want)
		}
		if got := mode(t, existing); got != 0o640 {
			t.Errorf("%s -o an existing 0640 file: mode %v, want it kept", tc.cmd, got)
		}
	}
}

func mode(t *testing.T, path string) fs.FileMode {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Mode().Perm()
}

// faultingAsm runs 300 jump-table iterations, then loads from address 3.
const faultingAsm = `
.name fault
.base 0x1000
.data
jtab: .word &even, &odd
.text
start: li r1, 0
       li r2, 300
       li r9, jtab
loop:  andi r3, r1, 1
       slli r4, r3, 3
       add  r4, r9, r4
       ld   r5, 0(r4)
       jr   r5, r3
even:  addi r6, r6, 2
       j next
odd:   addi r6, r6, 3
next:  addi r1, r1, 1
       blt  r1, r2, loop
       li   r8, 3
       ld   r7, 0(r8)
       halt
`

// TestTcasmFaultExits1: a program that faults makes every tcasm mode
// that runs it exit 1 with the fault on stderr, and -predict and -pipe
// print no rates or totals; a program that runs cleanly exits 0.
func TestTcasmFaultExits1(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "fault.s")
	if err := os.WriteFile(src, []byte(faultingAsm), 0o644); err != nil {
		t.Fatal(err)
	}
	const fault = "tcasm: vm: fault: pc=14: bad load address 0x3"
	fresh, existing := filepath.Join(dir, "fault.tcstore"), filepath.Join(dir, "kept.tcstore")
	kept := []byte("an earlier trace")
	if err := os.WriteFile(existing, kept, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{
		{"-predict", "-n", "100000"},
		{"-pipe", "5"},
		{"-run"},
		{"-o", fresh},
		{"-o", existing},
	} {
		code, stdout, stderr := run(t, "tcasm", append([]string{"-s", src}, mode...)...)
		if code != 1 || !strings.Contains(stderr, fault) || strings.Contains(stdout, "instructions:") || strings.Contains(stdout, "total:") {
			t.Errorf("tcasm %v: exit %d, stdout %q, stderr %q; want exit 1, no rates or totals, %q on stderr",
				mode, code, stdout, stderr, fault)
		}
	}
	// A failed -o leaves its destination as it was: absent, or unchanged.
	if _, err := os.Stat(fresh); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("tcasm -o %s: a faulting program left a file behind (stat: %v)", fresh, err)
	}
	if b, err := os.ReadFile(existing); err != nil || !bytes.Equal(b, kept) {
		t.Errorf("tcasm -o %s: a faulting program changed the existing file to %q (%v)", existing, b, err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".*")); len(left) != 0 {
		t.Errorf("tcasm -o: temp files left behind: %v", left)
	}
	mustRun(t, "tcasm", "-s", filepath.Join("..", "..", "examples", "asm", "dispatch.s"), "-predict")
}

// TestDamagedStoreExits1: a raw or compressed store with overwritten
// group bytes, or a truncated one, exits 1 with the error on stderr and
// prints no rates.
func TestDamagedStoreExits1(t *testing.T) {
	dir := t.TempDir()
	for _, flags := range [][]string{nil, {"-compress"}} {
		path := filepath.Join(dir, "perl.tcstore")
		mustRun(t, "tracegen", append([]string{"-w", "perl", "-n", "200000", "-o", path}, flags...)...)
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corrupt := append([]byte(nil), img...)
		copy(corrupt[len(corrupt)/2:], bytes.Repeat([]byte{0xFF}, 16))
		for name, b := range map[string][]byte{"corrupt": corrupt, "truncated": img[:len(img)/2]} {
			damaged := filepath.Join(dir, name+".tcstore")
			if err := os.WriteFile(damaged, b, 0o644); err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := run(t, "tcpredict", "-trace", damaged)
			if code != 1 || stdout != "" || !strings.Contains(stderr, trace.ErrCorrupt.Error()) {
				t.Errorf("tracegen %v, %s store: exit %d, stdout %q, stderr %q; want exit 1, no stdout, an ErrCorrupt on stderr",
					flags, name, code, stdout, stderr)
			}
		}
	}
}

// TestTracegenFormatFlagRetired: tracegen writes only TCSTORE1, so
// -format is an unknown flag and exits 2 before any work.
func TestTracegenFormatFlagRetired(t *testing.T) {
	code, _, stderr := run(t, "tracegen", "-w", "perl", "-n", "1000", "-o", filepath.Join(t.TempDir(), "f"), "-format", "v2")
	if want := "flag provided but not defined: -format"; code != 2 || !strings.Contains(stderr, want) {
		t.Fatalf("tracegen -format v2: exit %d, want 2 with %q; stderr:\n%s", code, want, stderr)
	}
}

// TestPatternHistOutOfRangeExits2: a pattern history length outside
// 1..64 is a usage error under every target-cache predictor, reported in
// one line before the trace is read, not a panic.
func TestPatternHistOutOfRangeExits2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perl.tcstore")
	mustRun(t, "tracegen", "-w", "perl", "-n", "1000", "-o", path)
	for _, predictor := range []string{"tagless", "hybrid", "cascaded", "ittage"} {
		for _, hist := range []string{"0", "70", "-3"} {
			code, stdout, stderr := run(t, "tcpredict", "-trace", path, "-predictor", predictor, "-hist", hist)
			if code != 2 || stdout != "" || strings.Contains(stderr, "goroutine") || !strings.Contains(stderr, "history length") {
				t.Errorf("tcpredict -predictor %s -hist %s: exit %d, stdout %q, stderr %q; want exit 2, no stdout, one error line",
					predictor, hist, code, stdout, stderr)
			}
		}
	}
}

// TestITTAGEDefaultHistory: without -hist, -predictor ittage reads the
// 64-bit history its longest table indexes with, exactly as with
// -hist 64, for pattern and path history; an explicit -hist still wins.
func TestITTAGEDefaultHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcc.tcstore")
	mustRun(t, "tracegen", "-w", "gcc", "-n", "200000", "-o", path)
	for _, kind := range []string{"pattern", "path"} {
		def := mustRun(t, "tcpredict", "-trace", path, "-predictor", "ittage", "-history", kind)
		if full := mustRun(t, "tcpredict", "-trace", path, "-predictor", "ittage", "-history", kind, "-hist", "64"); def != full {
			t.Errorf("%s history: default ittage output differs from -hist 64:\n%s\nvs\n%s", kind, def, full)
		}
		if short := mustRun(t, "tcpredict", "-trace", path, "-predictor", "ittage", "-history", kind, "-hist", "9"); short == def {
			t.Errorf("%s history: -hist 9 gives the default's output; the flag is ignored", kind)
		}
	}
}

// TestNonPositiveBudgetExits2: tracegen and tcasm refuse a zero or
// negative -n before any work, naming the flag, print nothing on stdout
// and write no file.
func TestNonPositiveBudgetExits2(t *testing.T) {
	dir := t.TempDir()
	asm := filepath.Join("..", "..", "examples", "asm", "dispatch.s")
	out := filepath.Join(dir, "x.tcstore")
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"tracegen", []string{"-w", "perl", "-n", "0", "-stats"}},
		{"tracegen", []string{"-w", "perl", "-n", "-5", "-o", out}},
		{"tcasm", []string{"-s", asm, "-run", "-n", "-1"}},
		{"tcasm", []string{"-s", asm, "-o", out, "-n", "0"}},
		{"tcasm", []string{"-s", asm, "-predict", "-n", "0"}},
	} {
		code, stdout, stderr := run(t, tc.cmd, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-n must be positive") {
			t.Errorf("%s %v: exit %d, stdout %q, stderr %q; want exit 2, no stdout, \"-n must be positive\" on stderr",
				tc.cmd, tc.args, code, stdout, stderr)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a refused -n left %s behind (stat: %v)", out, err)
	}
}
