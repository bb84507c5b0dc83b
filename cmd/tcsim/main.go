// Command tcsim runs the paper-reproduction experiments and prints their
// tables.
//
// Usage:
//
//	tcsim -list
//	tcsim -exp table4
//	tcsim -exp all -n 5000000 -t 2000000 -parallel 4
//	tcsim -exp all -timeout 2m -resume run.json
//	tcsim -exp all -parallel 8 -segments 4
//	tcsim -exp all -n 100000000 -trace-store /tmp/tc -spill-mb 256
//
// The suite is fault tolerant: a failing simulation cell marks only its
// own rows as ERR, every other experiment still runs, and tcsim exits
// non-zero with a failure digest on stderr. Ctrl-C drains gracefully
// (partial results plus a summary; a second Ctrl-C kills immediately),
// and -resume records completed experiments so a restarted run only
// recomputes what is missing — byte-identical to an uninterrupted run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/fsutil"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "all", "experiment id (see -list), or \"all\"")
		list       = flag.Bool("list", false, "list experiments and exit")
		nAcc       = flag.Int64("n", 0, "accuracy-simulation instruction budget (default 2M)")
		nTime      = flag.Int64("t", 0, "timing-simulation instruction budget (default 1M)")
		model      = flag.String("model", "fast", "timing model: fast | event")
		format     = flag.String("format", "text", "output format: text | json | csv")
		parallel   = flag.Int("parallel", 0, "simulation cells run concurrently per experiment (0 = one per CPU, 1 = serial)")
		segments   = flag.Int("segments", 0, "segments each fused accuracy pass (an experiment's runs that share a workload, flush interval and front end) splits its replay into (0 = auto from spare workers, 1 = off)")
		traceStore = flag.String("trace-store", "", "spill large captures to columnar trace-store files in this directory")
		spillMB    = flag.Int("spill-mb", 256, "with -trace-store: captures above this in-memory size (MB) spill to disk")
		timeout    = flag.Duration("timeout", 0, "per-experiment deadline (0 = none); timed-out cells render ERR")
		resume     = flag.String("resume", "", "run manifest path: completed experiments are recorded there and replayed on restart")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		benchFmt   = flag.String("benchfmt", "", "write per-experiment results in the standard Go benchmark format to this file")
		count      = flag.Int("count", 1, "repetitions of the whole suite; each rep adds one result set to -benchfmt")
		warmup     = flag.Int("warmup", 0, "unrecorded warm-up repetitions before the -count recorded ones (prime caches and capture memos)")
		quiet      = flag.Bool("quiet", false, "suppress the per-experiment summary on stderr")
		telemOut   = flag.String("telemetry", "", "write per-site predictor statistics and run metrics to this JSON file")
		events     = flag.Int("events", 0, "misprediction events retained per simulation cell (0 = no event log)")
		sites      = flag.Bool("sites", false, "print the per-site misprediction report after the experiment tables")
		sitesTop   = flag.Int("sites-top", 10, "sites shown per cell in the -sites report (0 = all)")
		commit     = flag.String("commit", "", "commit id to tag -benchfmt output with")
	)
	flag.Parse()

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		return 2
	}

	// Validate everything up front: a bad flag must fail before any
	// simulation starts, not minutes into a run. Explicitly-set
	// non-positive budgets are rejected rather than silently replaced by
	// defaults.
	var usageErr string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "n":
			if *nAcc <= 0 {
				usageErr = fmt.Sprintf("-n must be positive, got %d", *nAcc)
			}
		case "t":
			if *nTime <= 0 {
				usageErr = fmt.Sprintf("-t must be positive, got %d", *nTime)
			}
		case "parallel":
			if *parallel <= 0 {
				usageErr = fmt.Sprintf("-parallel must be positive, got %d", *parallel)
			}
		case "timeout":
			if *timeout <= 0 {
				usageErr = fmt.Sprintf("-timeout must be positive, got %v", *timeout)
			}
		case "segments":
			if *segments < 0 {
				usageErr = fmt.Sprintf("-segments must be non-negative, got %d", *segments)
			}
		case "spill-mb":
			if *spillMB <= 0 {
				usageErr = fmt.Sprintf("-spill-mb must be positive, got %d", *spillMB)
			}
			if *traceStore == "" {
				usageErr = "-spill-mb needs -trace-store"
			}
		case "events":
			if *events < 0 {
				usageErr = fmt.Sprintf("-events must be non-negative, got %d", *events)
			}
		case "sites-top":
			if *sitesTop < 0 {
				usageErr = fmt.Sprintf("-sites-top must be non-negative, got %d", *sitesTop)
			}
		case "count":
			if *count < 1 {
				usageErr = fmt.Sprintf("-count must be at least 1, got %d", *count)
			}
		case "warmup":
			if *warmup < 0 {
				usageErr = fmt.Sprintf("-warmup must be non-negative, got %d", *warmup)
			}
		}
	})
	if usageErr != "" {
		return fail("tcsim: %s", usageErr)
	}
	switch *model {
	case "fast", "event":
	default:
		return fail("tcsim: unknown timing model %q (want fast or event)", *model)
	}
	switch *format {
	case "text", "json", "csv":
	default:
		return fail("tcsim: unknown output format %q (want text, json or csv)", *format)
	}
	if *commit != "" && *benchFmt == "" {
		return fail("tcsim: -commit only makes sense with -benchfmt")
	}
	if *count > 1 || *warmup > 0 {
		// Repetitions exist to collect independent samples for the
		// significance-testing tcbenchdiff; a resume manifest would replay
		// reps 2..N from disk (zero-cost, zero-information samples) and
		// the telemetry recorder would merge N runs into one report.
		if *resume != "" {
			return fail("tcsim: -count/-warmup cannot be combined with -resume")
		}
		if *telemOut != "" || *sites {
			return fail("tcsim: -count/-warmup cannot be combined with -telemetry or -sites")
		}
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}

	params := bench.DefaultParams()
	if *nAcc > 0 {
		params.AccuracyBudget = *nAcc
	}
	if *nTime > 0 {
		params.TimingBudget = *nTime
	}
	if *parallel > 0 {
		params.Parallel = *parallel
	}
	params.EventModel = *model == "event"
	params.Segments = *segments

	if *traceStore != "" {
		// A record's in-memory SoA footprint is ~28 bytes (three u64 columns
		// plus four byte columns), so the MB threshold converts to a record
		// budget above which captures stream to disk instead.
		const approxBytesPerRecord = 3*8 + 4
		workload.ConfigureSpill(workload.SpillConfig{
			Dir:       *traceStore,
			Threshold: int64(*spillMB) << 20 / approxBytesPerRecord,
			Compress:  true,
		})
	}

	// Telemetry is collected only when some output wants it; otherwise the
	// recorder stays nil and the simulators skip collection entirely.
	var recorder *telemetry.Recorder
	if *telemOut != "" || *sites {
		recorder = telemetry.NewRecorder(telemetry.Config{Events: *events})
		params.Telemetry = recorder
	} else if *events > 0 {
		return fail("tcsim: -events needs a sink; add -telemetry or -sites")
	}

	var toRun []*bench.Experiment
	if *exp == "all" {
		toRun = bench.All()
	} else {
		e, err := bench.ByID(*exp)
		if err != nil {
			return fail("%v", err)
		}
		toRun = append(toRun, e)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("%v", err)
		}
		defer pprof.StopCPUProfile()
	}

	// First Ctrl-C or SIGTERM (what container runtimes and CI cancellers
	// send) cancels the run context: in-flight kernels stop at their next
	// poll, the suite renders what it has and summarises. Once the context
	// fires, the handler is unregistered, so a second signal terminates
	// the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	var fmtReports []bench.ExperimentReport
	var logw *os.File
	if !*quiet {
		logw = os.Stderr
	}
	before := bench.SnapshotStats()
	start := time.Now()
	// -count reruns the whole suite, each rep an independent sample for
	// tcbenchdiff's significance tests, after -warmup unrecorded reps
	// that prime the capture memos (a cold first rep pays the one-time
	// capture cost and would pollute the sample with a huge outlier).
	// Only the first recorded rep renders tables (the output is
	// byte-identical across reps by construction); every recorded rep
	// appends its reports to the -benchfmt result set.
	var res *bench.SuiteResult
	var digests []string
	for rep := 1 - *warmup; rep <= *count; rep++ {
		recorded := rep >= 1
		opts := bench.SuiteOptions{
			Experiments:  toRun,
			Params:       params,
			Format:       *format,
			Timeout:      *timeout,
			ManifestPath: *resume,
			Out:          io.Discard,
		}
		if recorded {
			opts.OnExperiment = func(r bench.ExperimentReport) {
				fmtReports = append(fmtReports, r)
			}
		}
		if rep == 1 {
			opts.Out = os.Stdout
		}
		if logw != nil {
			opts.Log = logw
			switch {
			case !recorded:
				fmt.Fprintf(logw, "tcsim: warm-up rep %d/%d\n", rep+*warmup, *warmup)
			case *count > 1:
				fmt.Fprintf(logw, "tcsim: rep %d/%d\n", rep, *count)
			}
		}
		var err error
		res, err = bench.RunSuite(ctx, opts)
		if err != nil {
			return fail("tcsim: %v", err)
		}
		if d := res.Digest(); d != "" {
			if *count > 1 || *warmup > 0 {
				d = fmt.Sprintf("rep %d/%d: %s", rep, *count, d)
			}
			digests = append(digests, d)
		}
		if res.Interrupted {
			break
		}
	}
	wall := time.Since(start)
	work := bench.SnapshotStats().Sub(before)

	if !*quiet {
		if segs := sim.SegmentCounters(); segs.SegmentedRuns > 0 {
			fmt.Fprintf(os.Stderr, "tcsim: segmented %d accuracy passes into %d segments (%d warm-up instructions)\n",
				segs.SegmentedRuns, segs.SegmentsExecuted, segs.WarmupInstructions)
		}
		if spilledCaptures, spilledBytes := workload.SpillStats(); spilledCaptures > 0 {
			cache := trace.StoreCacheCounters()
			fmt.Fprintf(os.Stderr, "tcsim: spilled %d captures (%d bytes on disk); store cache %d hits / %d misses / %d evictions\n",
				spilledCaptures, spilledBytes, cache.Hits, cache.Misses, cache.Evictions)
		}
	}

	// Telemetry and benchfmt outputs are written even when the run was
	// interrupted (partial telemetry covers the cells that finished), and
	// atomically (temp + rename), so a drained SIGINT run always leaves a
	// valid file behind — never a truncated one.
	if recorder != nil {
		replayCalls, captureCount := workload.MemoCounters()
		_, memoBytes := workload.MemoStats()
		segs := sim.SegmentCounters()
		cache := trace.StoreCacheCounters()
		spilledCaptures, spilledBytes := workload.SpillStats()
		rep := recorder.Report(telemetry.RunInfo{
			Workers:             params.Workers(),
			Wall:                wall,
			Instructions:        work.Instructions,
			MemoCaptures:        captureCount,
			MemoHits:            replayCalls - captureCount,
			MemoBytes:           memoBytes,
			SegmentedRuns:       segs.SegmentedRuns,
			SegmentsExecuted:    segs.SegmentsExecuted,
			WarmupInstructions:  segs.WarmupInstructions,
			StoreCacheHits:      cache.Hits,
			StoreCacheMisses:    cache.Misses,
			StoreCacheEvictions: cache.Evictions,
			SpilledCaptures:     spilledCaptures,
			SpilledBytes:        spilledBytes,
			Interrupted:         res.Interrupted,
		})
		if *sites {
			fmt.Println("== telemetry: per-site indirect-jump report ==")
			fmt.Println()
			if err := rep.WriteSites(os.Stdout, *sitesTop); err != nil {
				return fail("tcsim: %v", err)
			}
		}
		if *telemOut != "" {
			if err := fsutil.WriteFileAtomic(*telemOut, func(w io.Writer) error {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				return enc.Encode(rep)
			}); err != nil {
				return fail("%v", err)
			}
		}
	}

	if *benchFmt != "" {
		if err := writeBenchFmt(*benchFmt, fmtReports, params, *model, *commit); err != nil {
			return fail("%v", err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail("%v", err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail("%v", err)
		}
	}

	if len(digests) > 0 {
		for _, d := range digests {
			fmt.Fprint(os.Stderr, "tcsim: "+d)
		}
		if *resume != "" && (res.Interrupted || len(res.Failures) > 0) {
			fmt.Fprintf(os.Stderr, "tcsim: rerun with -resume %s to finish the remaining experiments\n", *resume)
		}
		return 1
	}
	return 0
}

// writeBenchFmt writes the accumulated per-experiment reports in the
// standard Go benchmark text format (atomically: temp + rename), one
// result line per (experiment, rep) in completion order, preceded by the
// run configuration and the machine identity. The file is what stock
// benchstat — and this repo's tcbenchdiff — consume.
func writeBenchFmt(path string, reports []bench.ExperimentReport, params bench.Params, model, commit string) error {
	cfg := []benchfmt.Config{
		{Key: "suite", Value: "tcsim"},
		{Key: "model", Value: model},
		{Key: "accuracy-budget", Value: fmt.Sprint(params.AccuracyBudget)},
		{Key: "timing-budget", Value: fmt.Sprint(params.TimingBudget)},
	}
	if commit != "" {
		cfg = append(cfg, benchfmt.Config{Key: "commit", Value: commit})
	}
	cfg = append(cfg, benchfmt.MachineConfig()...)
	return fsutil.WriteFileAtomic(path, func(out io.Writer) error {
		w := benchfmt.NewWriter(out)
		for _, r := range reports {
			res := benchfmt.Result{
				FullName: "BenchmarkSuite/exp=" + r.ID,
				Iters:    1,
				Values: []benchfmt.Value{
					{Value: r.WallMS * 1e6, Unit: "ns/op"},
					{Value: float64(r.Cells), Unit: "cells/op"},
					{Value: float64(r.Instructions), Unit: "instrs/op"},
				},
				Config: cfg,
			}
			if err := w.Write(&res); err != nil {
				return err
			}
		}
		return nil
	})
}
