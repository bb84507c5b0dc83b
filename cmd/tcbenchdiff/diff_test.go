package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// checkGolden compares got against the named golden file, rewriting it
// under -update (same contract as internal/bench's golden test).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/tcbenchdiff -run Golden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenBenchfmt pins the full table for a benchfmt diff that
// exercises every verdict: regression (table4), improvement (budget),
// no difference (table2), significant-but-small (cache), too noisy
// (flaky), single runs (micro), and one-sided rows (retired/fresh).
func TestGoldenBenchfmt(t *testing.T) {
	var out, errOut bytes.Buffer
	code := runDiff(defaultOptions(), "testdata/old.txt", "testdata/new.txt", &out, &errOut)
	if code != 1 {
		t.Errorf("exit = %d, want 1 (table4 regressed); stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "table4") {
		t.Errorf("stderr does not name the regressed experiment:\n%s", errOut.String())
	}
	checkGolden(t, "golden_benchfmt.txt", out.String())
}

// TestSeededNoiseFalsePositive is the acceptance scenario for retiring
// the single-run threshold gate. Old and new draw from the SAME
// distribution (uniform ±20% around 10ms — scheduler-noise scale for
// short suite runs). The legacy rule, `new > old*1.10` on one run per
// side, fires constantly on this null distribution; the significance
// gate on 5 runs per side almost never does, and never more often than
// its alpha promises.
func TestSeededNoiseFalsePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	draw := func() float64 { return 10 * (0.8 + 0.4*rng.Float64()) }

	const trials = 100
	legacyFP, newFP := 0, 0
	opts := defaultOptions()
	for i := 0; i < trials; i++ {
		// Legacy gate: one run per side, fixed 10% threshold.
		if draw() > draw()*1.10 {
			legacyFP++
		}
		// New gate: five runs per side, Mann-Whitney against alpha.
		oldV := []float64{draw(), draw(), draw(), draw(), draw()}
		newV := []float64{draw(), draw(), draw(), draw(), draw()}
		if compareKey(opts, "null", oldV, newV).Verdict == verdictRegression {
			newFP++
		}
	}
	t.Logf("false positives over %d null trials: legacy=%d significance-gate=%d", trials, legacyFP, newFP)
	if legacyFP < 10 {
		t.Errorf("legacy single-run gate fired %d/%d times on pure noise; expected >= 10 — the noise model is too tame to prove the point", legacyFP, trials)
	}
	if newFP > trials/20 {
		t.Errorf("significance gate fired %d/%d times on pure noise, above its alpha=%.2f promise", newFP, trials, opts.alpha)
	}
	if newFP*2 >= legacyFP {
		t.Errorf("significance gate (%d) is not clearly better than the legacy gate (%d)", newFP, legacyFP)
	}
}

// writeBenchfmt writes a one-experiment benchfmt snapshot with the given
// per-rep wall times, for driving runDiff end to end from tests.
func writeBenchfmt(t *testing.T, path, exp string, ms []float64) {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("suite: tcsim\n\n")
	for _, v := range ms {
		fmt.Fprintf(&b, "BenchmarkSuite/exp=%s 1 %g ns/op\n", exp, v*1e6)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestNoiseSkipBothBranches pins both sides of the variance-aware skip
// that replaced the old point-estimate -min-ms floor.
//
// Noisy branch: the sides are completely separated (the rank test alone
// would call p=0.0079) but the old side's CI is enormous — one 50ms
// outlier among ~1ms runs. A gate must not turn that into a failure:
// the row reports "too noisy to call" and the exit stays 0.
//
// Quiet branch: tight 10ms runs against tight 11ms runs — the same
// configuration gates, proving the skip exempts noise, not regressions.
func TestNoiseSkipBothBranches(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.txt")
	newPath := filepath.Join(dir, "new.txt")

	// Noisy: complete separation, but no CI tight enough to stand on.
	writeBenchfmt(t, oldPath, "jitter", []float64{1, 1.1, 1.2, 1.3, 50})
	writeBenchfmt(t, newPath, "jitter", []float64{60, 100, 101, 102, 103})
	var out, errOut bytes.Buffer
	if code := runDiff(defaultOptions(), oldPath, newPath, &out, &errOut); code != 0 {
		t.Errorf("noisy branch: exit = %d, want 0 (too noisy to call); stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "too noisy to call") {
		t.Errorf("noisy branch: row not marked too noisy:\n%s", out.String())
	}
	r := compareKey(defaultOptions(), "jitter", []float64{1, 1.1, 1.2, 1.3, 50}, []float64{60, 100, 101, 102, 103})
	if r.Verdict != verdictNoisy {
		t.Errorf("noisy branch: verdict = %s, want %s", r.Verdict, verdictNoisy)
	}
	if r.P >= 0.05 {
		t.Errorf("noisy branch: p = %g; the point of the test is that significance alone would have gated", r.P)
	}

	// Quiet: a real 10% regression with tight intervals must still gate.
	writeBenchfmt(t, oldPath, "jitter", []float64{10, 10.05, 10.1, 10.15, 10.2})
	writeBenchfmt(t, newPath, "jitter", []float64{11, 11.02, 11.04, 11.06, 11.08})
	out.Reset()
	errOut.Reset()
	if code := runDiff(defaultOptions(), oldPath, newPath, &out, &errOut); code != 1 {
		t.Errorf("quiet branch: exit = %d, want 1 (real regression); stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("quiet branch: row not marked REGRESSION:\n%s", out.String())
	}
}

// TestToleranceFloor: a shift can be statistically unambiguous yet too
// small to care about. Complete separation (p=0.0079) at +0.5% must not
// gate under the default 1% tolerance.
func TestToleranceFloor(t *testing.T) {
	oldV := []float64{10.00, 10.01, 10.02, 10.03, 10.04}
	newV := []float64{10.05, 10.06, 10.07, 10.08, 10.09}
	r := compareKey(defaultOptions(), "cache", oldV, newV)
	if r.Verdict != verdictSmall {
		t.Fatalf("verdict = %s (p=%g delta=%g), want %s", r.Verdict, r.P, r.Delta, verdictSmall)
	}
	if r.P >= 0.05 {
		t.Errorf("p = %g, want significant — otherwise this tests nothing", r.P)
	}
}

// TestFewRunsNeverGates: a single run per side is a point estimate; the
// row is informational no matter how large the delta.
func TestFewRunsNeverGates(t *testing.T) {
	r := compareKey(defaultOptions(), "micro", []float64{2.0}, []float64{9.0})
	if r.Verdict != verdictFewRuns {
		t.Fatalf("verdict = %s, want %s", r.Verdict, verdictFewRuns)
	}
}

// TestFilterAndGroupBy drives the benchproc expressions through runDiff.
func TestFilterAndGroupBy(t *testing.T) {
	opts := defaultOptions()
	opts.filter = "exp:table2"
	var out, errOut bytes.Buffer
	if code := runDiff(opts, "testdata/old.txt", "testdata/new.txt", &out, &errOut); code != 0 {
		t.Errorf("exit = %d, want 0 (table4 filtered out); stderr:\n%s", code, errOut.String())
	}
	if strings.Contains(out.String(), "table4") {
		t.Errorf("filtered experiment still present:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "table2") {
		t.Errorf("kept experiment missing:\n%s", out.String())
	}

	// Group by model: every result in the fixture shares model=bimodal,
	// so all experiments pool into one row per side.
	opts = defaultOptions()
	opts.groupBy = "model"
	out.Reset()
	errOut.Reset()
	runDiff(opts, "testdata/old.txt", "testdata/new.txt", &out, &errOut)
	if !strings.Contains(out.String(), "bimodal") {
		t.Errorf("group-by model produced no bimodal row:\n%s", out.String())
	}
}

// TestBadExpressionsExit2 pins the usage-error exit code.
func TestBadExpressionsExit2(t *testing.T) {
	opts := defaultOptions()
	opts.filter = "exp:" // empty value list is a syntax error
	var out, errOut bytes.Buffer
	if code := runDiff(opts, "testdata/old.txt", "testdata/new.txt", &out, &errOut); code != 2 {
		t.Errorf("bad filter: exit = %d, want 2", code)
	}
	opts = defaultOptions()
	opts.groupBy = ","
	if code := runDiff(opts, "testdata/old.txt", "testdata/new.txt", &out, &errOut); code != 2 {
		t.Errorf("bad projection: exit = %d, want 2", code)
	}
}

// TestMissingFileExit1 pins the load-error exit code.
func TestMissingFileExit1(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := runDiff(defaultOptions(), "testdata/does-not-exist.txt", "testdata/new.txt", &out, &errOut); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
}

// TestMachineMismatchWarns: snapshots from different machines still
// diff, with the same tables and exit code, but stderr carries one
// warning naming each disagreeing key. Snapshots that agree, or where one
// side predates machine tagging, stay silent.
func TestMachineMismatchWarns(t *testing.T) {
	dir := t.TempDir()
	write := func(name, header string) string {
		t.Helper()
		var b bytes.Buffer
		b.WriteString(header)
		for _, ms := range []float64{10, 10.1, 10.2, 10.3, 10.4} {
			fmt.Fprintf(&b, "BenchmarkSuite/exp=table2 1 %g ns/op\n", ms*1e6)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	boxA := write("a.txt", "goos: linux\ncpu: Box A\ngomaxprocs: 2\ngo: go1.24.0\n")
	boxA2 := write("a2.txt", "goos: linux\ncpu: Box A\ngomaxprocs: 2\ngo: go1.24.0\n")
	boxB := write("b.txt", "goos: linux\ncpu: Box B\ngomaxprocs: 8\ngo: go1.24.0\n")
	untagged := write("untagged.txt", "suite: tcsim\n")

	run := func(oldArg, newArg string) (code int, stdout, stderr string) {
		var out, errOut bytes.Buffer
		code = runDiff(defaultOptions(), oldArg, newArg, &out, &errOut)
		return code, out.String(), errOut.String()
	}
	sameCode, sameOut, sameErr := run(boxA, boxA2)
	if sameErr != "" {
		t.Errorf("same machine: unexpected stderr:\n%s", sameErr)
	}
	code, out, errOut := run(boxA, boxB)
	if code != sameCode || out != sameOut {
		t.Errorf("machine mismatch changed the result: exit %d vs %d\n%s\nvs\n%s", code, sameCode, out, sameOut)
	}
	want := "tcbenchdiff: warning: OLD and NEW were measured on different machines (cpu: Box A vs Box B; gomaxprocs: 2 vs 8); timings may not compare\n"
	if errOut != want {
		t.Errorf("stderr = %q, want %q", errOut, want)
	}
	if _, _, errOut := run(untagged, boxB); errOut != "" {
		t.Errorf("untagged OLD: unexpected stderr:\n%s", errOut)
	}
}
