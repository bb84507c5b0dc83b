package bench

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// suiteParams keeps runner tests fast: accuracy-only budgets small enough
// that a full sub-suite runs in well under a second.
func suiteParams() Params {
	p := DefaultParams()
	p.AccuracyBudget = 50_000
	p.TimingBudget = 20_000
	return p
}

// suiteExperiments is a small but representative slice of the suite: one
// accuracy experiment, one timing experiment (fused timing runs),
// and the claims verifier is deliberately excluded for speed.
func suiteExperiments(t *testing.T) []*Experiment {
	t.Helper()
	var out []*Experiment
	for _, id := range []string{"table2", "table9", "cbt"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func runSuite(t *testing.T, ctx context.Context, opts SuiteOptions) (*SuiteResult, string) {
	t.Helper()
	var buf bytes.Buffer
	opts.Out = &buf
	res, err := RunSuite(ctx, opts)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	return res, buf.String()
}

func TestSuiteOutputDeterministic(t *testing.T) {
	for _, format := range []string{"text", "csv", "json"} {
		opts := SuiteOptions{Experiments: suiteExperiments(t), Params: suiteParams(), Format: format}
		res1, out1 := runSuite(t, context.Background(), opts)
		opts.Params.Parallel = 1
		res2, out2 := runSuite(t, context.Background(), opts)
		if out1 != out2 {
			t.Errorf("format %s: parallel and serial output differ", format)
		}
		if len(res1.Failures) != 0 || len(res2.Failures) != 0 {
			t.Errorf("format %s: unexpected failures: %v %v", format, res1.Failures, res2.Failures)
		}
	}
}

func TestSuiteResumeByteIdentical(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		exps := suiteExperiments(t)
		opts := SuiteOptions{Experiments: exps, Params: suiteParams(), Format: format}
		_, want := runSuite(t, context.Background(), opts)

		// First run: only the first two experiments complete (as if the
		// process died before the third).
		manifest := filepath.Join(t.TempDir(), "run.json")
		partial := opts
		partial.Experiments = exps[:2]
		partial.ManifestPath = manifest
		runSuite(t, context.Background(), partial)

		// Second run: full list against the manifest.
		full := opts
		full.ManifestPath = manifest
		res, got := runSuite(t, context.Background(), full)
		if got != want {
			t.Errorf("format %s: resumed output differs from uninterrupted run", format)
		}
		if len(res.Resumed) != 2 {
			t.Errorf("format %s: resumed %v, want the first two experiments", format, res.Resumed)
		}
	}
}

func TestSuiteInterruptAndResume(t *testing.T) {
	exps := suiteExperiments(t)
	opts := SuiteOptions{Experiments: exps, Params: suiteParams(), Format: "text"}
	_, want := runSuite(t, context.Background(), opts)

	// Interrupt after the first experiment completes: the rest are
	// skipped and reported as such.
	manifest := filepath.Join(t.TempDir(), "run.json")
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := opts
	interrupted.ManifestPath = manifest
	interrupted.OnExperiment = func(ExperimentReport) { cancel() }
	res, _ := runSuite(t, ctx, interrupted)
	if !res.Interrupted {
		t.Fatal("expected an interrupted result")
	}
	if len(res.Skipped) != len(exps)-1 {
		t.Fatalf("skipped %v, want %d experiments", res.Skipped, len(exps)-1)
	}
	if digest := res.Digest(); !strings.Contains(digest, "interrupted") {
		t.Fatalf("digest missing interruption note: %q", digest)
	}

	// Resume: the completed experiment replays from the manifest, the
	// rest compute fresh; output matches the uninterrupted run exactly.
	resume := opts
	resume.ManifestPath = manifest
	res2, got := runSuite(t, context.Background(), resume)
	if got != want {
		t.Error("resumed output differs from uninterrupted run")
	}
	if len(res2.Resumed) != 1 {
		t.Errorf("resumed %v, want exactly the first experiment", res2.Resumed)
	}
}

func TestSuiteTimeoutMarksCellsAndRetriesOnResume(t *testing.T) {
	exps := suiteExperiments(t)
	manifest := filepath.Join(t.TempDir(), "run.json")
	opts := SuiteOptions{
		Experiments:  exps,
		Params:       suiteParams(),
		Format:       "text",
		Timeout:      time.Nanosecond,
		ManifestPath: manifest,
	}
	res, out := runSuite(t, context.Background(), opts)
	if res.Completed != len(exps) {
		t.Fatalf("completed %d of %d experiments; timeouts must not abort the suite", res.Completed, len(exps))
	}
	if len(res.Failures) == 0 {
		t.Fatal("expected deadline failures")
	}
	for _, ce := range res.Failures {
		if !errors.Is(ce.Err, context.DeadlineExceeded) {
			t.Fatalf("failure %v, want context.DeadlineExceeded", ce)
		}
	}
	if !strings.Contains(out, "ERR") {
		t.Fatal("timed-out cells should render as ERR")
	}

	// Nothing clean was checkpointed, so a resume without the deadline
	// recomputes everything and matches a healthy run.
	clean := SuiteOptions{Experiments: exps, Params: suiteParams(), Format: "text"}
	_, want := runSuite(t, context.Background(), clean)
	resume := clean
	resume.ManifestPath = manifest
	res2, got := runSuite(t, context.Background(), resume)
	if got != want {
		t.Error("post-timeout resume differs from a healthy run")
	}
	if len(res2.Resumed) != 0 {
		t.Errorf("resumed %v, want none (timed-out experiments must re-run)", res2.Resumed)
	}
}

func TestSuiteManifestFingerprintMismatch(t *testing.T) {
	exps := suiteExperiments(t)[:1]
	manifest := filepath.Join(t.TempDir(), "run.json")
	opts := SuiteOptions{Experiments: exps, Params: suiteParams(), Format: "text", ManifestPath: manifest}
	runSuite(t, context.Background(), opts)

	changed := opts
	changed.Params.AccuracyBudget++
	changed.Out = &bytes.Buffer{}
	if _, err := RunSuite(context.Background(), changed); err == nil {
		t.Fatal("expected a fingerprint-mismatch error")
	}
}

func TestSuiteUnknownFormat(t *testing.T) {
	_, err := RunSuite(context.Background(), SuiteOptions{Format: "yaml", Params: suiteParams()})
	if err == nil {
		t.Fatal("expected an unknown-format error")
	}
}
