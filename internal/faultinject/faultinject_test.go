package faultinject

import (
	"bytes"
	"context"
	"errors"
	"slices"
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

func runSuite(t *testing.T, exps []*bench.Experiment, parallel int, mods ...func(*bench.Params)) (*bench.SuiteResult, string) {
	t.Helper()
	p := testParams(parallel)
	for _, mod := range mods {
		mod(&p)
	}
	var buf bytes.Buffer
	res, err := bench.RunSuite(context.Background(), bench.SuiteOptions{
		Experiments: exps,
		Params:      p,
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

// TestCorruptTimingReplayIsIsolated damages perl's capture under a timing
// experiment, on each timing model, so the error travels from a fused
// gang through the fused pipeline pass or the event passes: every failure
// names perl and wraps trace.ErrCorrupt, the output is the same at 1 and
// 8 workers, and gcc's table is untouched.
func TestCorruptTimingReplayIsIsolated(t *testing.T) {
	for _, event := range []bool{false, true} {
		model := func(p *bench.Params) { p.EventModel = event }
		exps := experiments(t, "table7")
		_, healthy := runSuite(t, exps, 1, model)

		plan := &Plan{CorruptReplays: map[string]Corruption{"perl": {Offset: 1024, Length: 16}}}
		res, out1, out8 := func() (*bench.SuiteResult, string, string) {
			defer plan.Install()()
			res, out1 := runSuite(t, exps, 1, model)
			_, out8 := runSuite(t, exps, 8, model)
			return res, out1, out8
		}()

		if out1 != out8 {
			t.Errorf("event model %v: faulty output differs between 1 and 8 workers", event)
		}
		if len(res.Failures) == 0 {
			t.Fatalf("event model %v: corrupt replay produced no failures", event)
		}
		for _, ce := range res.Failures {
			if ce.Workload != "perl" {
				t.Errorf("event model %v: failure %v names workload %q, want perl only", event, ce, ce.Workload)
			}
			if !errors.Is(ce.Err, trace.ErrCorrupt) {
				t.Errorf("event model %v: failure %v does not wrap trace.ErrCorrupt", event, ce)
			}
		}
		// gcc's table is the last; the failure footer's notes follow its rows.
		gcc := func(out string) string {
			i := strings.Index(out, "Table 7 (gcc)")
			if i < 0 {
				t.Fatalf("no gcc table in\n%s", out)
			}
			return strings.Join(filterLines(out[i:], "ERR"), "\n")
		}
		if h, f := gcc(healthy), gcc(out1); h != f {
			t.Errorf("event model %v: gcc's table changed under perl's fault:\n  healthy:\n%s\n  faulty:\n%s", event, h, f)
		}
	}
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

// TestPanicInFusedTimingMemberIsIsolated panics one fast timing run:
// table7's 8-way History Xor cell on gcc is a member of gcc's timing gang,
// beside the baseline and the other twenty tagged caches, and has a
// pipeline pass of its own. The gang must run without it, so only that
// entry renders ERR at 1 and 8 workers; and a delay on it changes
// nothing.
func TestPanicInFusedTimingMemberIsIsolated(t *testing.T) {
	const label = "table7/gcc/8way/scheme2"
	exps := experiments(t, "table7")
	_, healthy := runSuite(t, exps, 1)

	delay := &Plan{DelayCells: map[string]time.Duration{label: 30 * time.Millisecond}}
	restore := delay.Install()
	for _, workers := range []int{1, 8} {
		res, out := runSuite(t, exps, workers)
		if len(res.Failures) != 0 {
			t.Fatalf("%d workers: a delay must not fail cells: %v", workers, res.Failures)
		}
		if out != healthy {
			t.Errorf("%d workers: delaying a fused timing member changed the output", workers)
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
		// The perl table has an "8" row too; it must not change.
		assertOnlyEntryErr(t, healthy, out, "8", 3)
	}
	if len(plan.Triggered()) == 0 {
		t.Fatal("the fault never fired")
	}
}

// TestPanicInTimingBaselineFailsItsReductions pins the contract for the
// BTB-only baseline, an ordinary member of its workload's timing gang
// that every execution-time reduction of the workload is taken against.
// A panic in table7's gcc baseline cell fails that cell alone — it is the
// only failure in the digest — and every gcc reduction renders ERR,
// because none can be computed without it; the perl table is untouched,
// at 1 and 8 workers alike.
func TestPanicInTimingBaselineFailsItsReductions(t *testing.T) {
	const label = "table7/gcc/btb-baseline"
	exps := experiments(t, "table7")
	_, healthy := runSuite(t, exps, 1)

	plan := &Plan{PanicCells: map[string]string{label: "injected panic"}}
	restore := plan.Install()
	defer restore()
	var outs []string
	for _, workers := range []int{1, 8} {
		res, out := runSuite(t, exps, workers)
		outs = append(outs, out)
		if len(res.Failures) != 1 || res.Failures[0].CellLabel() != label {
			t.Fatalf("%d workers: failures %v, want exactly %s", workers, res.Failures, label)
		}
		var lines []string
		for _, l := range strings.Split(out, "\n") {
			if !strings.Contains(l, "cell(s) failed") && !strings.HasPrefix(l, "note: ERR ") {
				lines = append(lines, l)
			}
		}
		want := strings.Split(healthy, "\n")
		if len(lines) != len(want) {
			t.Fatalf("%d workers: faulty output has %d lines besides the footer, healthy has %d", workers, len(lines), len(want))
		}
		// The ERR entries narrow the gcc table's columns, so its rules and
		// header may change width; their words may not.
		rule := func(l string) bool { return strings.Trim(l, "-") == "" }
		inGcc, changed := false, 0
		for i := range want {
			inGcc = inGcc || strings.HasPrefix(want[i], "Table 7 (gcc)")
			got, wantFields := strings.Fields(lines[i]), strings.Fields(want[i])
			if lines[i] == want[i] || inGcc && (rule(lines[i]) && rule(want[i]) || strings.Join(got, " ") == strings.Join(wantFields, " ")) {
				continue
			}
			if !inGcc || len(got) != 4 || got[0] != wantFields[0] || got[1] != "ERR" || got[2] != "ERR" || got[3] != "ERR" {
				t.Fatalf("%d workers: unexpected change:\n  healthy: %q\n  faulty:  %q", workers, want[i], lines[i])
			}
			changed++
		}
		if changed != 7 {
			t.Errorf("%d workers: %d gcc rows render ERR, want all 7", workers, changed)
		}
	}
	if outs[0] != outs[1] {
		t.Error("faulty output differs between 1 and 8 workers")
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

// TestRASVariantFaultsAreIsolated faults the runs that ride one capture
// walk as variants: ras walks each program once, its seven depths riding
// that walk. A panic in perl's depth-4 cell, a variant, fails that cell
// alone, and so does one in its depth-1 cell, the run whose front end the
// walk would run: the walk runs the others without it. Every other entry
// of the perl column and every other column render as in a healthy run.
// A corrupt perl capture fails every perl cell, and no other. Each holds
// at 1 and 8 workers.
func TestRASVariantFaultsAreIsolated(t *testing.T) {
	exps := experiments(t, "ras")
	_, healthy := runSuite(t, exps, 1)
	const perl = 3 // the perl column: after the depth, xlisp and gosearch

	for _, depth := range []string{"4", "1"} {
		label := "ras/perl/ras-" + depth
		plan := &Plan{PanicCells: map[string]string{label: "injected panic"}}
		restore := plan.Install()
		for _, workers := range []int{1, 8} {
			res, out := runSuite(t, exps, workers)
			if len(res.Failures) != 1 {
				t.Fatalf("%s, %d workers: got %d failures, want exactly the injected one: %v", label, workers, len(res.Failures), res.Failures)
			}
			if ce := res.Failures[0]; ce.CellLabel() != label || ce.Stack == "" {
				t.Errorf("%s, %d workers: failure %q (stack %d bytes), want it with a stack", label, workers, ce.CellLabel(), len(ce.Stack))
			}
			assertOnlyEntryErr(t, healthy, out, depth, perl)
		}
		if len(plan.Triggered()) == 0 {
			t.Fatalf("%s: the fault never fired", label)
		}
		restore()
	}

	plan := &Plan{CorruptReplays: map[string]Corruption{"perl": {Offset: 1024, Length: 16}}}
	restore := plan.Install()
	defer restore()
	for _, workers := range []int{1, 8} {
		res, out := runSuite(t, exps, workers)
		if len(res.Failures) != 7 {
			t.Fatalf("%d workers: got %d failures, want perl's seven: %v", workers, len(res.Failures), res.Failures)
		}
		for _, ce := range res.Failures {
			if ce.Workload != "perl" || !errors.Is(ce.Err, trace.ErrCorrupt) {
				t.Errorf("%d workers: failure %v, want a perl cell wrapping trace.ErrCorrupt", workers, ce)
			}
		}
		assertOnlyColumnErr(t, healthy, out, perl, 7)
	}
}

// assertOnlyColumnErr requires faulty to be healthy plus the failure
// footer, with field col of exactly rows rows changed to ERR and nothing
// else changed but column widths: lines compare field by field, and rules
// of dashes match any rule.
func assertOnlyColumnErr(t *testing.T, healthy, faulty string, col, rows int) {
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
	rule := func(l string) bool { return l != "" && strings.Trim(l, "-") == "" }
	changed := 0
	for i := range want {
		got, wantFields := strings.Fields(lines[i]), strings.Fields(want[i])
		if slices.Equal(got, wantFields) || rule(lines[i]) && rule(want[i]) {
			continue
		}
		changed++
		if len(got) != len(wantFields) || len(got) <= col || got[col] != "ERR" {
			t.Fatalf("unexpected change:\n  healthy: %q\n  faulty:  %q", want[i], lines[i])
		}
		for j := range got {
			if j != col && got[j] != wantFields[j] {
				t.Fatalf("entry %d changed too:\n  healthy: %q\n  faulty:  %q", j, want[i], lines[i])
			}
		}
	}
	if changed != rows {
		t.Fatalf("%d rows changed, want %d", changed, rows)
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
