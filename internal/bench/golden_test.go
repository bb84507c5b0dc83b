package bench

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// goldenExperiments is the slice of the suite the golden file pins: an
// accuracy table, a target-cache accuracy table, a timing figure and a
// no-simulation table, so every kernel family is covered without running
// the whole suite; plus the accuracy experiments whose runs fuse into
// gangs with a flush interval (context-switch), mixed target-cache
// families beside a BTB-only member (followups), and several runs merged
// under one telemetry key (verify's claim cells); the BTB-only runs that
// differ from their pass's front end only in update strategy (table2,
// verify) or RAS depth (ras); and the timing
// experiments with path-history members (table5) and five machine shapes
// (sensitivity); and the event model, with and without wrong-path fetch
// (wrongpath).
var goldenExperiments = []string{"table1", "table2", "table4", "table5", "figures12-13", "budget", "context-switch", "followups", "ras", "sensitivity", "verify", "wrongpath"}

// goldenEventExperiments are rendered after goldenExperiments with
// Params.EventModel set: timing tables on the event-driven model.
var goldenEventExperiments = []string{"table7"}

// renderGolden runs the golden experiment slice with telemetry enabled at
// the given worker count and returns the full text artifact: the rendered
// experiment tables, the event-model slice's under a header line, then
// the per-site telemetry report of both — the byte stream `tcsim -exp ...
// -sites` prints.
func renderGolden(t *testing.T, parallel int) string {
	t.Helper()
	rec := telemetry.NewRecorder(telemetry.Config{Events: 4})
	p := Params{
		AccuracyBudget: 200_000,
		TimingBudget:   100_000,
		Parallel:       parallel,
		Telemetry:      rec,
	}
	var out bytes.Buffer
	for _, event := range []bool{false, true} {
		ids := goldenExperiments
		if event {
			ids = goldenEventExperiments
			out.WriteString("== event model ==\n\n")
		}
		var exps []*Experiment
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, e)
		}
		p.EventModel = event
		res, err := RunSuite(context.Background(), SuiteOptions{
			Experiments: exps,
			Params:      p,
			Format:      "text",
			Out:         &out,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failures) > 0 {
			t.Fatalf("golden run had %d cell failure(s): %v", len(res.Failures), res.Failures[0])
		}
	}
	out.WriteString("== telemetry: per-site indirect-jump report ==\n\n")
	// Run-level metrics (wall time, occupancy) are deliberately absent
	// from WriteSites, so the artifact is reproducible.
	if err := rec.Report(telemetry.RunInfo{}).WriteSites(&out, 10); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestGoldenReport pins the full text report — experiment tables plus the
// -sites telemetry tables — against testdata/golden_report.txt. Run with
// -update to accept intentional output changes; the diff then shows up in
// review instead of silently drifting.
func TestGoldenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run simulates several million instructions")
	}
	got := renderGolden(t, 1)
	path := filepath.Join("testdata", "golden_report.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/bench -run TestGoldenReport -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("report drifted from %s (rerun with -update if intentional)\n%s",
			path, firstDiff(got, string(want)))
	}
}

// TestGoldenReportParallel asserts the whole artifact — including the
// telemetry site tables, whose collectors are merged from racing workers —
// is byte-identical at any worker count.
func TestGoldenReportParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run simulates several million instructions")
	}
	serial := renderGolden(t, 1)
	parallel := renderGolden(t, 8)
	if serial != parallel {
		t.Errorf("parallel output differs from serial\n%s", firstDiff(parallel, serial))
	}
}

// firstDiff renders the first differing line of two multi-line strings.
func firstDiff(got, want string) string {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	n := min(len(g), len(w))
	for i := 0; i < n; i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("first diff at line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("outputs differ in length: got %d lines, want %d", len(g), len(w))
}
