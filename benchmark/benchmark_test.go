package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSmoke runs the harness in-process at smoke scale and returns its exit
// code, its standard output and the parsed result line.
func runSmoke(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-scale", "smoke", "-seconds", "0", "-out", t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	out := strings.TrimSpace(stdout.String())
	lines := strings.Split(out, "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("run %v: exit %d, last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, code, err, out, stderr.String())
	}
	return code, out, res
}

// checkMetrics requires the result to carry exactly the declared metrics,
// each with its unit and each printed on its own line with its unit.
func checkMetrics(t *testing.T, out string, res result, declared []metric) {
	t.Helper()
	if len(res.Metrics) != len(declared) {
		t.Errorf("result has %d metrics, %d declared", len(res.Metrics), len(declared))
	}
	for _, m := range declared {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s+-?[0-9.]+\s+` + regexp.QuoteMeta(m.Unit) + `\s`)
		if !line.MatchString(out) {
			t.Errorf("metric %s is not printed with its unit %s", m.Name, m.Unit)
		}
	}
}

func TestSmokeWorkloads(t *testing.T) {
	runs := [][]string{
		{"-workload", wPaperAccuracy, "-seed", "1"},
		{"-workload", wPaperTiming, "-seed", "1"},
		{"-workload", wSweepFused, "-seed", "1"},
		{"-workload", wColdSpill, "-seed", "1"},
		// No committed digests exist for seed 2: the reference paths check it.
		{"-workload", wSweepFused, "-seed", "2"},
		{"-workload", wColdSpill, "-seed", "2"},
	}
	for _, args := range runs {
		t.Run(args[1]+"/seed="+args[3], func(t *testing.T) {
			code, out, res := runSmoke(t, args...)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v; want a correct run with failed_frac 0\n%s", code, res, out)
			}
			checkMetrics(t, out, res, endToEnd)
			if strings.Contains(out, "captures during reps:") && !strings.Contains(out, "captures during reps: 0 ") {
				t.Errorf("set-up missed captures the reps needed:\n%s", out)
			}
		})
	}
}

func TestWrongDigestFailsEveryOperation(t *testing.T) {
	want, err := parseExpected(embeddedExpected)
	if err != nil {
		t.Fatal(err)
	}
	key := expectedKey(wPaperAccuracy, "smoke", 1)
	want[key]["table2"] = strings.Repeat("0", 64)
	bad, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	defer func(good []byte) { embeddedExpected = good }(embeddedExpected)
	embeddedExpected = bad
	code, out, res := runSmoke(t, "-workload", wPaperAccuracy)
	if code == 0 || res.Correct || res.Failed != res.Attempted {
		t.Fatalf("exit %d, result %+v; want failed_frac 1\n%s", code, res, out)
	}
}

func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	code, out, res := runSmoke(t, "-out", dir, "-trace", "1", "-workload", wColdSpill, "-seed", "3")
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
	checkMetrics(t, out, res, perLayer)
	for _, want := range []string{"# ledger: layer costs explain", "# span self time: capture/gcc", "# span self time: sim.run/perl/ittage"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, wColdSpill+"-seed3.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 || tf.OtherData["workload"] != wColdSpill {
		t.Fatalf("trace file has %d events, header %v", len(tf.TraceEvents), tf.OtherData)
	}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Args["rep"] == "" {
			t.Fatalf("malformed event %+v", ev)
		}
	}
}

func TestExperimentsPartitionSuite(t *testing.T) {
	seen := map[string]int{}
	for _, id := range append(append([]string(nil), accuracyExperiments...), timingExperiments...) {
		seen[id]++
	}
	for _, e := range bench.All() {
		if seen[e.ID] != 1 {
			t.Errorf("experiment %s is in %d paper workloads, want exactly 1", e.ID, seen[e.ID])
		}
		delete(seen, e.ID)
	}
	for id := range seen {
		t.Errorf("paper workloads name %s, which is not a registered experiment", id)
	}
}

// Every seed must expand to the same number of valid points, so the work
// per rep does not depend on the seed.
func TestGeneratedInputsAreValid(t *testing.T) {
	progs := workload.All()
	for seed := int64(1); seed <= 64; seed++ {
		e := env{sc: scales["full"], seed: seed}
		ex, err := genSpec(e, progs, 1000).Expand()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ex.SkippedInvalid != 0 || len(ex.Points) != 284*len(progs) {
			t.Errorf("seed %d: %d points, %d invalid; want %d, 0", seed, len(ex.Points), ex.SkippedInvalid, 284*len(progs))
		}
		if _, err := newSpill(e); err != nil {
			t.Errorf("seed %d: cold-spill configs: %v", seed, err)
		}
	}
}

// BENCHMARK.json declares what the harness prints; the two must agree.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has keys %v, want command, paths, run_seconds, workloads, end_to_end, per_layer", keys)
	}
	type decl struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		RunSeconds int    `json:"run_seconds"`
		Workloads  []decl `json:"workloads"`
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) < 2 || len(bj.Workloads) > 8 || len(bj.EndToEnd) < 1 || len(bj.EndToEnd) > 16 ||
		len(bj.PerLayer) < 1 || len(bj.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics; limits 2-8, 1-16, 1-128",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer))
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}

	var wnames []string
	for _, w := range bj.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		wnames = append(wnames, w.Name)
	}
	if fmt.Sprint(wnames) != fmt.Sprint(allWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", wnames, allWorkloads)
	}

	match := func(kind string, got []decl, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness prints %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			checkName(g.Name)
			w := want[i]
			if !unitRE.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s %s: malformed unit %q or direction %q", kind, g.Name, g.Unit, g.Better)
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s #%d: BENCHMARK.json %s %s %s, harness %s %s %s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			} else if bounded && (*g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v, harness %v, must be in (0, 0.25]", kind, g.Name, *g.Bound, w.Bound)
			}
		}
	}
	match("end_to_end", bj.EndToEnd, endToEnd, true)
	match("per_layer", bj.PerLayer, perLayer, false)

	var largest float64
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
		largest = max(largest, m.Bound)
	}
	if !e2e["setup_s"] || endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must be declared with the largest bound")
	}
	for _, m := range perLayer {
		if !e2e[m.Moves] || len(m.On) == 0 {
			t.Errorf("per-layer %s moves %q on %v: want a declared end-to-end metric and workloads", m.Name, m.Moves, m.On)
		}
		for _, w := range m.On {
			if !contains(allWorkloads, w) {
				t.Errorf("per-layer %s names unknown workload %q", m.Name, w)
			}
		}
	}
}
