package faultinject

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/trace"
)

// The tests run a small real slice of the experiment suite under each
// fault class and hold it to the runner's contract: the suite completes,
// exactly the affected rows render ERR, the failure digest names the
// faulty cells, and everything untouched is byte-identical to a healthy
// run at any worker count.

func testParams(parallel int) bench.Params {
	p := bench.DefaultParams()
	p.AccuracyBudget = 50_000
	p.TimingBudget = 20_000
	p.Parallel = parallel
	return p
}

func experiments(t *testing.T, ids ...string) []*bench.Experiment {
	t.Helper()
	var out []*bench.Experiment
	for _, id := range ids {
		e, err := bench.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func runSuite(t *testing.T, exps []*bench.Experiment, parallel int) (*bench.SuiteResult, string) {
	t.Helper()
	var buf bytes.Buffer
	res, err := bench.RunSuite(context.Background(), bench.SuiteOptions{
		Experiments: exps,
		Params:      testParams(parallel),
		Format:      "text",
		Out:         &buf,
	})
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	return res, buf.String()
}

// filterLines drops every line containing any of the markers, leaving the
// lines a fault must not have touched.
func filterLines(s string, markers ...string) []string {
	var out []string
line:
	for _, l := range strings.Split(s, "\n") {
		for _, m := range markers {
			if strings.Contains(l, m) {
				continue line
			}
		}
		out = append(out, l)
	}
	return out
}

// assertHealthyRowsIntact compares the faulty output to the healthy one
// with all fault-marked lines removed: what remains must be identical, or
// the fault leaked into unrelated cells.
func assertHealthyRowsIntact(t *testing.T, healthy, faulty string, markers ...string) {
	t.Helper()
	h := filterLines(healthy, markers...)
	f := filterLines(faulty, append([]string{"ERR"}, markers...)...)
	if len(h) != len(f) {
		t.Fatalf("healthy rows changed shape: %d healthy lines vs %d faulty lines (markers %v)", len(h), len(f), markers)
	}
	for i := range h {
		if h[i] != f[i] {
			t.Fatalf("healthy row changed under fault:\n  healthy: %q\n  faulty:  %q", h[i], f[i])
		}
	}
}

func TestPanicInCellIsIsolated(t *testing.T) {
	exps := experiments(t, "table2", "cbt")
	_, healthy := runSuite(t, exps, 1)

	plan := &Plan{PanicCells: map[string]string{"table2/gcc/btb-default": "injected panic"}}
	restore := plan.Install()
	defer restore()

	res, out1 := runSuite(t, exps, 1)
	_, out8 := runSuite(t, exps, 8)

	if out1 != out8 {
		t.Error("faulty output differs between 1 and 8 workers")
	}
	if len(plan.Triggered()) == 0 {
		t.Fatal("the fault never fired")
	}
	if len(res.Failures) != 1 {
		t.Fatalf("got %d failures, want exactly the injected one: %v", len(res.Failures), res.Failures)
	}
	ce := res.Failures[0]
	if ce.CellLabel() != "table2/gcc/btb-default" {
		t.Errorf("failure label %q, want table2/gcc/btb-default", ce.CellLabel())
	}
	if ce.Stack == "" {
		t.Error("a raw panic must carry a stack trace")
	}
	if !strings.Contains(out1, "ERR") {
		t.Error("affected row did not render ERR")
	}
	if digest := res.Digest(); !strings.Contains(digest, "table2/gcc/btb-default") {
		t.Errorf("digest does not name the failed cell: %q", digest)
	}
	// Only the gcc row of table2 may change; cbt and every other table2
	// row must be untouched.
	assertHealthyRowsIntact(t, healthy, out1, "gcc")
}

func TestCorruptReplayIsIsolated(t *testing.T) {
	exps := experiments(t, "table2", "cbt")
	_, healthy := runSuite(t, exps, 1)

	plan := &Plan{CorruptReplays: map[string]Corruption{"perl": {Offset: 1024, Length: 16}}}
	restore := plan.Install()
	defer restore()

	res, out1 := runSuite(t, exps, 1)
	_, out8 := runSuite(t, exps, 8)

	if out1 != out8 {
		t.Error("faulty output differs between 1 and 8 workers")
	}
	if len(res.Failures) == 0 {
		t.Fatal("corrupt replay produced no failures")
	}
	for _, ce := range res.Failures {
		if ce.Workload != "perl" {
			t.Errorf("failure %v names workload %q, want perl only", ce, ce.Workload)
		}
		if !errors.Is(ce.Err, trace.ErrCorrupt) {
			t.Errorf("failure %v does not wrap trace.ErrCorrupt", ce)
		}
	}
	assertHealthyRowsIntact(t, healthy, out1, "perl")
}

func TestTruncatedReplayIsIsolated(t *testing.T) {
	exps := experiments(t, "table2")
	_, healthy := runSuite(t, exps, 1)

	plan := &Plan{TruncateReplays: map[string]int{"gcc": 64}}
	restore := plan.Install()
	defer restore()

	res, out := runSuite(t, exps, 4)
	if len(res.Failures) == 0 {
		t.Fatal("truncated replay produced no failures")
	}
	for _, ce := range res.Failures {
		if ce.Workload != "gcc" {
			t.Errorf("failure %v names workload %q, want gcc only", ce, ce.Workload)
		}
		if !errors.Is(ce.Err, trace.ErrCorrupt) {
			t.Errorf("failure %v does not wrap trace.ErrCorrupt", ce)
		}
		if !strings.Contains(ce.Err.Error(), "truncated") {
			t.Errorf("failure %v does not identify truncation", ce)
		}
	}
	assertHealthyRowsIntact(t, healthy, out, "gcc")
}

func TestDelayedCellsDoNotChangeOutput(t *testing.T) {
	exps := experiments(t, "table2", "cbt")
	_, healthy := runSuite(t, exps, 1)

	plan := &Plan{DelayCells: map[string]time.Duration{
		"table2/compress/btb-default": 30 * time.Millisecond,
		"cbt/perl/cbt-stale":          30 * time.Millisecond,
	}}
	restore := plan.Install()
	defer restore()

	res, out := runSuite(t, exps, 8)
	if len(plan.Triggered()) == 0 {
		t.Fatal("the delays never fired")
	}
	if len(res.Failures) != 0 {
		t.Fatalf("delays must not fail cells: %v", res.Failures)
	}
	if out != healthy {
		t.Error("delayed run's output differs from the healthy run")
	}
}

// TestPanicInFusedMemberIsIsolated panics one member of a fused accuracy
// pass: followups' cascaded run on gcc shares one gang with gcc's BTB,
// target-cache, hybrid and ITTAGE runs. The pass must run without it, so
// only that entry renders ERR — the rest of the gcc row and every other
// row stay byte-identical to the healthy run — at 1 and 8 workers; and a
// delay on a fused member changes nothing.
func TestPanicInFusedMemberIsIsolated(t *testing.T) {
	const label = "followups/gcc/cascaded"
	exps := experiments(t, "followups")
	_, healthy := runSuite(t, exps, 1)

	delay := &Plan{DelayCells: map[string]time.Duration{label: 30 * time.Millisecond}}
	restore := delay.Install()
	for _, workers := range []int{1, 8} {
		res, out := runSuite(t, exps, workers)
		if len(res.Failures) != 0 {
			t.Fatalf("%d workers: a delay must not fail cells: %v", workers, res.Failures)
		}
		if out != healthy {
			t.Errorf("%d workers: delaying a fused member changed the output", workers)
		}
	}
	if len(delay.Triggered()) == 0 {
		t.Fatal("the delay never fired")
	}
	restore()

	plan := &Plan{PanicCells: map[string]string{label: "injected panic"}}
	restore = plan.Install()
	defer restore()
	for _, workers := range []int{1, 8} {
		res, out := runSuite(t, exps, workers)
		if len(res.Failures) != 1 {
			t.Fatalf("%d workers: got %d failures, want exactly the injected one: %v", workers, len(res.Failures), res.Failures)
		}
		if ce := res.Failures[0]; ce.CellLabel() != label || ce.Stack == "" {
			t.Errorf("%d workers: failure %q (stack %d bytes), want %s with a stack", workers, ce.CellLabel(), len(ce.Stack), label)
		}
		assertOnlyEntryErr(t, healthy, out, "gcc", 4)
	}
	if len(plan.Triggered()) == 0 {
		t.Fatal("the fault never fired")
	}
}

// assertOnlyEntryErr requires faulty to be healthy plus the failure
// footer, with exactly one entry changed: field col of the row starting
// with row now reads ERR.
func assertOnlyEntryErr(t *testing.T, healthy, faulty, row string, col int) {
	t.Helper()
	var lines []string
	for _, l := range strings.Split(faulty, "\n") {
		if !strings.Contains(l, "cell(s) failed") && !strings.HasPrefix(l, "note: ERR ") {
			lines = append(lines, l)
		}
	}
	want := strings.Split(healthy, "\n")
	if len(lines) != len(want) {
		t.Fatalf("faulty output has %d lines besides the footer, healthy has %d", len(lines), len(want))
	}
	changed := 0
	for i := range want {
		if lines[i] == want[i] {
			continue
		}
		changed++
		got, wantFields := strings.Fields(lines[i]), strings.Fields(want[i])
		if len(got) != len(wantFields) || got[0] != row || got[col] != "ERR" {
			t.Fatalf("unexpected change:\n  healthy: %q\n  faulty:  %q", want[i], lines[i])
		}
		for j := range got {
			if j != col && got[j] != wantFields[j] {
				t.Fatalf("entry %d of the %s row changed too:\n  healthy: %q\n  faulty:  %q", j, row, want[i], lines[i])
			}
		}
	}
	if changed != 1 {
		t.Fatalf("%d rows changed, want exactly the %s row", changed, row)
	}
}

// TestCombinedFaultsSuiteSurvives is the issue's acceptance scenario: a
// panic in one cell plus a corrupted replay for one workload, across the
// whole sub-suite, at two worker counts.
func TestCombinedFaultsSuiteSurvives(t *testing.T) {
	exps := experiments(t, "table1", "table2", "cbt")
	_, healthy := runSuite(t, exps, 1)

	plan := &Plan{
		PanicCells:     map[string]string{"table2/go/btb-2bit": "injected panic"},
		CorruptReplays: map[string]Corruption{"perl": {Offset: 2048, Length: 16}},
	}
	restore := plan.Install()
	defer restore()

	res, out1 := runSuite(t, exps, 1)
	_, out8 := runSuite(t, exps, 8)

	if out1 != out8 {
		t.Error("faulty output differs between 1 and 8 workers")
	}
	if res.Completed != len(exps) {
		t.Fatalf("suite completed %d of %d experiments", res.Completed, len(exps))
	}
	var panics, corrupts int
	for _, ce := range res.Failures {
		switch {
		case ce.CellLabel() == "table2/go/btb-2bit":
			panics++
		case ce.Workload == "perl" && errors.Is(ce.Err, trace.ErrCorrupt):
			corrupts++
		default:
			t.Errorf("unexpected failure: %v", ce)
		}
	}
	if panics != 1 || corrupts == 0 {
		t.Fatalf("failures: %d panic(s), %d corrupt(s); want 1 and >=1", panics, corrupts)
	}
	if res.Digest() == "" {
		t.Error("a faulty run must produce a non-empty digest (tcsim exits non-zero on it)")
	}
	// Healthy rows: everything not mentioning the panicked row's
	// workload-in-table2 or perl anywhere.
	assertHealthyRowsIntact(t, healthy, out1, "perl", "go ")
}

// TestRestoreStopsInjection proves a plan cannot leak past its restore:
// after restore, the same suite runs healthy again.
func TestRestoreStopsInjection(t *testing.T) {
	exps := experiments(t, "table2")
	_, healthy := runSuite(t, exps, 1)

	plan := &Plan{
		PanicCells:     map[string]string{"table2/gcc/btb-default": "injected panic"},
		CorruptReplays: map[string]Corruption{"perl": {Offset: 512, Length: 16}},
	}
	restore := plan.Install()
	res, _ := runSuite(t, exps, 1)
	if len(res.Failures) == 0 {
		t.Fatal("faults did not fire")
	}
	restore()

	res2, out := runSuite(t, exps, 1)
	if len(res2.Failures) != 0 {
		t.Fatalf("failures after restore: %v", res2.Failures)
	}
	if out != healthy {
		t.Error("post-restore output differs from the original healthy run")
	}
}
