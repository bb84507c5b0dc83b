package main

// The diff engine: load N-repetition snapshots per side, group them into
// per-experiment samples, and compare old vs. new with real statistics —
// median + order-statistic confidence interval per side, Mann-Whitney U
// p-value per row, and a gate that fires only on statistically
// significant regressions past a practical-significance floor.
//
// The retired gate compared two single runs against a 10% threshold,
// which conflates two questions the statistics here separate:
//
//   - is the difference real? (significance: the p-value against -alpha)
//   - is it big enough to care? (practical floor: delta against -tolerance)
//
// A single pair of runs can easily differ by 14% of pure scheduler
// noise (the seeded-noise test proves it); five quiet runs per side can
// confidently call a 2% shift.

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/benchmath"
	"repro/internal/benchproc"
)

// options carry every flag runDiff needs, so tests drive it directly.
type options struct {
	alpha      float64 // significance level for the Mann-Whitney test
	tolerance  float64 // practical floor: smaller significant regressions do not gate
	confidence float64 // level for the per-side confidence intervals
	maxNoise   float64 // CI half-width fraction above which a row is too noisy to call
	filter     string  // benchproc filter expression
	groupBy    string  // benchproc projection for row keys
}

func defaultOptions() options {
	return options{
		alpha:      0.05,
		tolerance:  0.01,
		confidence: 0.95,
		maxNoise:   0.25,
		groupBy:    "exp",
	}
}

// verdict classifies one row's comparison.
type verdict string

const (
	verdictRegression  verdict = "regression"  // significant and past the tolerance floor: gates
	verdictImprovement verdict = "improvement" // significant and faster
	verdictSmall       verdict = "small"       // significant but under the tolerance floor
	verdictNone        verdict = "none"        // no significant difference
	verdictNoisy       verdict = "noisy"       // CI too wide to support any call
	verdictFewRuns     verdict = "few-runs"    // n < 2 on a side: no interval, no test power
	verdictGone        verdict = "gone"        // experiment only in OLD
	verdictNew         verdict = "new"         // experiment only in NEW
)

// row is one rendered comparison.
type row struct {
	Key     string
	Old     *benchmath.Summary // ms
	New     *benchmath.Summary // ms
	P       float64            // NaN when no test ran
	Delta   float64            // fractional change of medians
	Verdict verdict
}

// runDiff is the whole program behind flag parsing; it returns the
// process exit code. Each side argument is a comma-separated list of Go
// benchmark format snapshot files (`tcsim -benchfmt`, possibly with
// `-count` reps). Every (file, rep) contributes one sample.
func runDiff(opts options, oldArg, newArg string, stdout, stderr io.Writer) int {
	filter, err := benchproc.NewFilter(opts.filter)
	if err != nil {
		fmt.Fprintln(stderr, "tcbenchdiff:", err)
		return 2
	}
	proj, err := benchproc.NewProjection(opts.groupBy)
	if err != nil {
		fmt.Fprintln(stderr, "tcbenchdiff:", err)
		return 2
	}
	oldS, oldM, err := loadSide(oldArg, filter, proj, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "tcbenchdiff:", err)
		return 1
	}
	newS, newM, err := loadSide(newArg, filter, proj, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "tcbenchdiff:", err)
		return 1
	}
	if diffs := machineDiffs(oldM, newM); diffs != "" {
		fmt.Fprintln(stderr, "tcbenchdiff: warning: OLD and NEW were measured on different machines ("+diffs+"); timings may not compare")
	}

	rows := compare(opts, oldS, newS)
	render(rows, stdout)

	var regressions []string
	for _, r := range rows {
		if r.Verdict == verdictRegression {
			regressions = append(regressions,
				fmt.Sprintf("%s: %s -> %s (%+.1f%%, p=%.3f)", r.Key,
					formatMS(r.Old.Center), formatMS(r.New.Center), 100*r.Delta, r.P))
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(stderr, "tcbenchdiff: %d statistically significant regression(s) (p < %g, slowdown >= %.0f%%):\n",
			len(regressions), opts.alpha, opts.tolerance*100)
		for _, r := range regressions {
			fmt.Fprintln(stderr, "  "+r)
		}
		return 1
	}
	return 0
}

// loadSide reads one side's snapshot list into per-key samples of wall
// milliseconds, plus the distinct values each benchfmt.MachineKeys key
// takes across the results that contributed a sample.
func loadSide(arg string, filter *benchproc.Filter, proj *benchproc.Projection, stderr io.Writer) (map[string][]float64, machineSet, error) {
	samples := map[string][]float64{}
	machine := machineSet{}
	for _, path := range strings.Split(arg, ",") {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		results, problems, err := benchfmt.ReadAll(f, path)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		for _, p := range problems {
			fmt.Fprintln(stderr, "tcbenchdiff: warning:", p)
		}
		for i := range results {
			r := &results[i]
			if !filter.Match(r) {
				continue
			}
			ns, ok := r.Value("ns/op")
			if !ok {
				continue
			}
			key := proj.Project(r)
			samples[key] = append(samples[key], ns/1e6)
			machine.add(r)
		}
	}
	return samples, machine, nil
}

// machineSet maps each machine key to the set of values one side's
// results carry for it.
type machineSet map[string]map[string]bool

func (m machineSet) add(r *benchfmt.Result) {
	for _, k := range benchfmt.MachineKeys {
		if v, ok := r.Lookup(k); ok {
			if m[k] == nil {
				m[k] = map[string]bool{}
			}
			m[k][v] = true
		}
	}
}

// values renders one key's value set, sorted and comma-joined.
func (m machineSet) values(k string) string {
	vs := make([]string, 0, len(m[k]))
	for v := range m[k] {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return strings.Join(vs, ",")
}

// machineDiffs describes the machine keys both sides record but with
// different values, e.g. "cpu: A vs B; gomaxprocs: 2 vs 8", or "" when
// they agree. A key only one side records (snapshots older than machine
// tagging) is not a disagreement.
func machineDiffs(oldM, newM machineSet) string {
	var diffs []string
	for _, k := range benchfmt.MachineKeys {
		if oldM[k] == nil || newM[k] == nil {
			continue
		}
		if o, n := oldM.values(k), newM.values(k); o != n {
			diffs = append(diffs, fmt.Sprintf("%s: %s vs %s", k, o, n))
		}
	}
	return strings.Join(diffs, "; ")
}

// compare builds the comparison rows for the union of keys, sorted.
func compare(opts options, oldS, newS map[string][]float64) []row {
	keys := map[string]bool{}
	for k := range oldS {
		keys[k] = true
	}
	for k := range newS {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	rows := make([]row, 0, len(sorted))
	for _, key := range sorted {
		rows = append(rows, compareKey(opts, key, oldS[key], newS[key]))
	}
	return rows
}

// compareKey classifies one experiment. The decision order matters:
// missing sides first, then sample-size sufficiency, then the
// variance-aware noise skip, then the significance test. The noise skip
// comes before significance because a test over garbage samples can
// still produce a small p — "too noisy to call" must win.
func compareKey(opts options, key string, oldV, newV []float64) row {
	r := row{Key: key, P: math.NaN()}
	if len(newV) == 0 {
		sum := benchmath.NewSample(oldV).Summary(opts.confidence)
		r.Old, r.Verdict = &sum, verdictGone
		return r
	}
	if len(oldV) == 0 {
		sum := benchmath.NewSample(newV).Summary(opts.confidence)
		r.New, r.Verdict = &sum, verdictNew
		return r
	}
	oldSum := benchmath.NewSample(oldV).Summary(opts.confidence)
	newSum := benchmath.NewSample(newV).Summary(opts.confidence)
	r.Old, r.New = &oldSum, &newSum
	if oldSum.Center != 0 {
		r.Delta = newSum.Center/oldSum.Center - 1
	}
	if test, err := benchmath.MannWhitneyUTest(oldV, newV); err == nil {
		r.P = test.P
	}
	switch {
	case oldSum.N < 2 || newSum.N < 2:
		// One run is a point, not a distribution: no interval, and the
		// rank test cannot reach significance. Report, never gate.
		r.Verdict = verdictFewRuns
	case oldSum.Noise() > opts.maxNoise || newSum.Noise() > opts.maxNoise:
		r.Verdict = verdictNoisy
	case r.P < opts.alpha && r.Delta >= opts.tolerance:
		r.Verdict = verdictRegression
	case r.P < opts.alpha && r.Delta < 0:
		r.Verdict = verdictImprovement
	case r.P < opts.alpha:
		r.Verdict = verdictSmall
	default:
		r.Verdict = verdictNone
	}
	return r
}

// render prints the comparison table.
func render(rows []row, w io.Writer) {
	fmt.Fprintf(w, "%-18s %22s %22s %8s %7s\n", "experiment", "old", "new", "delta", "p")
	var oldTotal, newTotal float64
	bothSides := 0
	for _, r := range rows {
		note := ""
		switch r.Verdict {
		case verdictGone:
			fmt.Fprintf(w, "%-18s %22s %22s %8s %7s  (gone)\n", r.Key, formatSide(r.Old), "-", "-", "-")
			continue
		case verdictNew:
			fmt.Fprintf(w, "%-18s %22s %22s %8s %7s  (new)\n", r.Key, "-", formatSide(r.New), "-", "-")
			continue
		case verdictRegression:
			note = "  REGRESSION"
		case verdictImprovement:
			note = "  improvement"
		case verdictSmall:
			note = "  (significant but within tolerance)"
		case verdictNoisy:
			note = fmt.Sprintf("  (too noisy to call: old %s, new %s)", r.Old.FormatCI(), r.New.FormatCI())
		case verdictFewRuns:
			note = "  (need >= 2 runs per side to call)"
		case verdictNone:
			note = "  ~"
		}
		oldTotal += r.Old.Center
		newTotal += r.New.Center
		bothSides++
		fmt.Fprintf(w, "%-18s %22s %22s %8s %7s%s\n",
			r.Key, formatSide(r.Old), formatSide(r.New), formatDelta(r.Delta), formatP(r.P), note)
	}
	if bothSides > 0 && newTotal > 0 {
		fmt.Fprintf(w, "%-18s %22s %22s %7.2fx\n", "TOTAL(medians)",
			formatMS(oldTotal), formatMS(newTotal), oldTotal/newTotal)
	}
}

// formatSide renders one side's summary: "22.0ms ±3.1% (n=5)".
func formatSide(s *benchmath.Summary) string {
	return fmt.Sprintf("%s %s (n=%d)", formatMS(s.Center), s.FormatCI(), s.N)
}

// formatMS renders a millisecond quantity at a tidy scale.
func formatMS(ms float64) string {
	return benchmath.FormatValue(ms*1e6, "ns")
}

func formatDelta(d float64) string {
	return fmt.Sprintf("%+.1f%%", 100*d)
}

func formatP(p float64) string {
	if math.IsNaN(p) {
		return "-"
	}
	return fmt.Sprintf("%.3f", p)
}
