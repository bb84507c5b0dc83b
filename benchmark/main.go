// Command benchmark is the repository's end-to-end benchmark. Each run
// measures one workload in its own process, checks that its outputs are
// correct, and prints its metrics, ending with one JSON line:
//
//	bash benchmark/run.sh --workload paper-accuracy --seed 1 --seconds 20 --trace 0
//
// An untraced run (-trace 0) prints the end-to-end metrics. A traced run
// (-trace 1) runs untraced reps, then the same reps with spans recorded
// around every call into the library, then a layers phase that times
// each layer's public functions, and prints the per-layer metrics. See
// README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

//go:embed testdata/expected.json
var embeddedExpected []byte

// workers is every workload's simulation concurrency (bench.Params.Parallel,
// sweep.Options.Workers, pool.Run): one per CPU, the default of
// `tcsim -parallel` and `tcsweep -workers`. GOMAXPROCS keeps its default,
// the same number.
var workers = runtime.NumCPU()

// expectedPath is where -update writes digests: the embedded file,
// relative to the repository root.
const expectedPath = "benchmark/testdata/expected.json"

// sample is one recorded rep with the process counters around it.
type sample struct {
	out       repOut
	cpu       time.Duration
	alloc     uint64
	gcs       uint32
	pause     time.Duration
	memoBytes int64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(allWorkloads, ", "))
		seed    = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fs.Float64("seconds", 20, "how long the recorded reps run; at least one rep runs")
		traced  = fs.Int("trace", 0, "1 = traced run: untraced and traced reps, then the layers phase; prints the per-layer metrics")
		outDir  = fs.String("out", ".bench_build/out", "directory for the benchfmt results and the trace-event file")
		scaleN  = fs.String("scale", "full", "input sizes: full, or smoke (100k-instruction budgets, no warm-up, one set-up round)")
		update  = fs.Bool("update", false, "write this run's digests into "+expectedPath)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...)
		return 2
	}
	sc, ok := scales[*scaleN]
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case !contains(allWorkloads, *name):
		return usage("-workload must be one of %s, got %q", strings.Join(allWorkloads, ", "), *name)
	case *seconds < 0:
		return usage("-seconds must be non-negative, got %v", *seconds)
	case *traced != 0 && *traced != 1:
		return usage("-trace must be 0 or 1, got %d", *traced)
	case !ok:
		return usage("-scale must be full or smoke, got %q", *scaleN)
	}
	want, err := parseExpected(embeddedExpected)
	if err != nil {
		return usage("%v", err)
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp("", "benchmark-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	e := env{ctx: context.Background(), sc: sc, seed: *seed, tmp: tmp}
	l, err := newLoad(*name, e)
	if err != nil {
		return fail(err)
	}

	header := machineHeader(*name, *seed, sc, *traced == 1)
	for _, c := range header {
		fmt.Fprintf(stdout, "# %s: %s\n", c.Key, c.Value)
	}
	for _, line := range l.inputs() {
		fmt.Fprintf(stdout, "# input: %s\n", line)
	}

	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	label := func(kind string, i int) string { return fmt.Sprintf("%s/%s-%d", *name, kind, i) }

	// Set-up: capture every trace the reps read, from an empty memo,
	// several times; setup_s is the median round.
	var setups []float64
	if !l.setupInRep() {
		for i := 0; i < sc.setupRounds; i++ {
			workload.ResetMemo()
			runtime.GC()
			sp := tr.start(nil, "setup", label("setup", i))
			t := time.Now()
			l.capture(tr, sp)
			setups = append(setups, time.Since(t).Seconds())
			tr.end(sp)
		}
	}
	captured := workload.CaptureCount()
	for i := 0; i < sc.warmup; i++ {
		l.rep(nil, nil)
		l.cleanup()
	}

	// Recorded reps run until their time is used up. Each starts after a
	// forced GC, so no rep pays for the garbage of the one before; the GC
	// counters include that collection.
	measure := func(tr *tracer, i int) sample {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		runtime.GC()
		c0 := cpuTime()
		sp := tr.start(nil, "rep", label("rep", i))
		t := time.Now()
		out := l.rep(tr, sp)
		out.wall = time.Since(t)
		tr.end(sp)
		c1 := cpuTime()
		runtime.ReadMemStats(&m1)
		_, memo := workload.MemoStats()
		l.cleanup()
		return sample{out: out, cpu: c1 - c0, alloc: m1.TotalAlloc - m0.TotalAlloc,
			gcs: m1.NumGC - m0.NumGC, pause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs), memoBytes: memo}
	}
	// A traced run alternates untraced and traced reps, so drift over the
	// run does not bias the tracing overhead.
	var plain, spanned []sample
	budget := time.Duration(*seconds * float64(time.Second))
	for i, start := 0, time.Now(); len(plain) == 0 || len(spanned) == 0 && tr != nil || time.Since(start) < budget; i++ {
		if tr != nil && i%2 == 1 {
			spanned = append(spanned, measure(tr, i))
		} else {
			plain = append(plain, measure(nil, i))
		}
	}
	peakRSS := peakRSSMiB()
	capturesInReps := workload.CaptureCount() - captured
	replays, captures := workload.MemoCounters()

	// Correctness: every rep's digests must equal the committed ones when
	// this input has them (otherwise the first rep's), and the last rep's
	// outputs must match the reference paths.
	key := expectedKey(*name, sc.name, *seed)
	ref := want[key]
	if ref == nil || *update {
		ref = plain[0].out.digests
	}
	var attempted, failed int64
	for i, s := range append(append([]sample(nil), plain...), spanned...) {
		if d := diffDigests(ref, s.out.digests); d != "" {
			fmt.Fprintf(stderr, "benchmark: rep %d output differs from %s: %s\n", i, key, d)
			s.out.failed = s.out.ops
		}
		attempted += s.out.ops
		failed += s.out.failed
	}
	if err := l.reference(); err != nil {
		fmt.Fprintf(stderr, "benchmark: reference check: %v\n", err)
		failed = attempted
	}
	if *update {
		if err := writeExpected(key, plain[0].out.digests); err != nil {
			return fail(err)
		}
	}
	if attempted == 0 {
		attempted, failed = 1, 1
	}

	walls := make([]float64, len(plain))
	rates := make([]float64, len(plain))
	for i, s := range plain {
		walls[i] = s.out.wall.Seconds()
		rates[i] = float64(s.out.instr) / s.out.wall.Seconds() / 1e6
		if l.setupInRep() {
			setups = append(setups, s.out.setup.Seconds())
		}
	}
	fmt.Fprintf(stdout, "# reps: warmup=%d recorded=%d traced=%d\n", sc.warmup, len(plain), len(spanned))
	if !l.setupInRep() {
		fmt.Fprintf(stdout, "# captures during reps: %d (0: set-up captured every trace the reps read)\n", capturesInReps)
	}

	metrics := map[string]float64{}
	notes := map[string]string{}
	if tr == nil {
		metrics["setup_s"] = median(setups)
		notes["setup_s"] = spread(setups, "set-up rounds")
		if l.setupInRep() {
			notes["setup_s"] = spread(setups, "reps' capture+spill phases")
		}
		metrics["wall_s"] = median(walls)
		notes["wall_s"] = spread(walls, "reps")
		metrics["sim_minstr_per_s"] = median(rates)
		notes["sim_minstr_per_s"] = spread(rates, "reps")
		metrics["peak_rss_mib"] = peakRSS
		notes["peak_rss_mib"] = "VmHWM after the recorded reps"
		printMetrics(stdout, endToEnd, metrics, notes)
	} else {
		costs, err := runLayers(e, l.layers())
		if err != nil {
			return fail(fmt.Errorf("layers phase: %w", err))
		}
		for k, v := range costs {
			metrics[k] = v
		}
		var cpus, utils, allocs, gcs, pauses, explained []float64
		for _, s := range plain {
			cpus = append(cpus, s.cpu.Seconds())
			utils = append(utils, s.cpu.Seconds()/(s.out.wall.Seconds()*float64(workers)))
			allocs = append(allocs, float64(s.alloc)/(1<<20))
			gcs = append(gcs, float64(s.gcs))
			pauses = append(pauses, ms(s.pause))
			explained = append(explained, float64(l.ledger(costs, s.out))/(float64(s.out.wall)*float64(workers)))
		}
		metrics["workload.memo_mib"] = float64(plain[len(plain)-1].memoBytes) / (1 << 20)
		metrics["workload.memo_hit_ratio"] = ratio(replays-captures, replays)
		cache := trace.StoreCacheCounters()
		metrics["trace.store.hit_ratio"] = ratio(cache.Hits, cache.Hits+cache.Misses)
		metrics["proc.cpu_s_per_rep"] = median(cpus)
		metrics["proc.cpu_util"] = median(utils)
		metrics["runtime.alloc_mib_per_rep"] = median(allocs)
		metrics["runtime.gc_cycles_per_rep"] = median(gcs)
		metrics["runtime.gc_pause_ms_per_rep"] = median(pauses)
		metrics["ledger.explained_frac"] = median(explained)
		tracedWalls := make([]float64, len(spanned))
		for i, s := range spanned {
			tracedWalls[i] = s.out.wall.Seconds()
		}
		metrics["trace_overhead_frac"] = median(tracedWalls)/median(walls) - 1

		tr.writeSelfTable(stdout)
		fmt.Fprintf(stdout, "# ledger: layer costs explain %.1f%% of the rep's CPU time (wall × %d workers); %.1f%% is unexplained\n",
			100*metrics["ledger.explained_frac"], workers, 100*(1-metrics["ledger.explained_frac"]))
		for _, m := range perLayer {
			notes[m.Name] = fmt.Sprintf("should move %s on %s", m.Moves, strings.Join(m.On, ", "))
		}
		printMetrics(stdout, perLayer, metrics, notes)
		hdr := map[string]string{}
		for _, c := range header {
			hdr[c.Key] = c.Value
		}
		path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d.trace.json", *name, *seed))
		if err := tr.writeChromeTrace(path, hdr); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "# trace: %s\n", path)
	}

	declared := endToEnd
	if tr != nil {
		declared = perLayer
	}
	// Every number measured must be declared in BENCHMARK.json (through
	// endToEnd or perLayer) and every declared one measured.
	for _, m := range declared {
		if _, ok := metrics[m.Name]; !ok {
			return fail(fmt.Errorf("declared metric %s was not measured", m.Name))
		}
	}
	if len(metrics) != len(declared) {
		return fail(fmt.Errorf("measured %d metrics, declared %d", len(metrics), len(declared)))
	}

	benchPath := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d.bench", *name, *seed, *traced))
	header = append(header, benchfmt.Config{Key: "reps", Value: strconv.Itoa(len(plain))})
	if err := writeBenchfmt(benchPath, *name, *seed, header, plain); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "# benchfmt: %s\n", benchPath)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range declared {
		result.Metrics[m.Name] = value{metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !result.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, ms []metric, vals map[string]float64, notes map[string]string) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-38s %16.6f %-11s %s\n", m.Name, vals[m.Name], m.Unit, notes[m.Name])
	}
}

// spread describes the samples a median was taken over.
func spread(vs []float64, what string) string {
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return fmt.Sprintf("median of %d %s (min %.4g, max %.4g)", len(vs), what, lo, hi)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// machineHeader identifies the machine, toolchain, commit and settings a
// result was measured with; results compare only within one header.
func machineHeader(name string, seed int64, sc scale, traced bool) []benchfmt.Config {
	return []benchfmt.Config{
		{Key: "goos", Value: runtime.GOOS},
		{Key: "goarch", Value: runtime.GOARCH},
		{Key: "cpu", Value: cpuModel()},
		{Key: "nproc", Value: strconv.Itoa(runtime.NumCPU())},
		{Key: "gomaxprocs", Value: strconv.Itoa(runtime.GOMAXPROCS(0))},
		{Key: "go", Value: runtime.Version()},
		{Key: "commit", Value: gitHead()},
		{Key: "workload", Value: name},
		{Key: "seed", Value: strconv.FormatInt(seed, 10)},
		{Key: "scale", Value: sc.name},
		{Key: "budgets", Value: fmt.Sprintf("accuracy=%d timing=%d sweep=%d spill=%d layers=%d",
			sc.accBudget, sc.timBudget, sc.sweepBudget, sc.spillBudget, sc.layerRecords)},
		{Key: "warmup", Value: strconv.Itoa(sc.warmup)},
		{Key: "traced", Value: strconv.FormatBool(traced)},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead reads the checked-out commit from .git in the working
// directory, without running git; "unknown" outside a repository.
func gitHead() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == ref {
			return id
		}
	}
	return "unknown"
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// Without /proc, fall back to the memory the Go runtime obtained.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// expectedKey names an input's digests: the paper workloads' outputs do
// not depend on the seed, the others' do.
func expectedKey(name, scale string, seed int64) string {
	if name == wPaperAccuracy || name == wPaperTiming {
		return name + "/" + scale
	}
	return fmt.Sprintf("%s/%s/seed=%d", name, scale, seed)
}

func parseExpected(data []byte) (map[string]map[string]string, error) {
	m := map[string]map[string]string{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("expected digests: %w", err)
	}
	return m, nil
}

// writeExpected records digests under key in the digest file of the
// checkout, which the next build embeds.
func writeExpected(key string, digests map[string]string) error {
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		return err
	}
	m, err := parseExpected(data)
	if err != nil {
		return err
	}
	m[key] = digests
	if data, err = json.MarshalIndent(m, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}

// diffDigests describes how got differs from want, or returns "".
func diffDigests(want, got map[string]string) string {
	var diffs []string
	for k, v := range want {
		if got[k] != v {
			diffs = append(diffs, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, k+" (unexpected)")
		}
	}
	return strings.Join(diffs, ", ")
}

// writeBenchfmt writes one result per recorded rep in the Go benchmark
// format, so tcbenchdiff can compare two commits' runs.
func writeBenchfmt(path, name string, seed int64, header []benchfmt.Config, reps []sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := benchfmt.NewWriter(f)
	for _, s := range reps {
		if err == nil {
			err = w.Write(&benchfmt.Result{
				FullName: fmt.Sprintf("BenchmarkWorkload/w=%s/seed=%d", name, seed),
				Iters:    1,
				Values: []benchfmt.Value{
					{Value: float64(s.out.wall.Nanoseconds()), Unit: "ns/op"},
					{Value: float64(s.out.instr), Unit: "instrs/op"},
				},
				Config: header,
			})
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func contains(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}
