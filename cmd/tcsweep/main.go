// Command tcsweep runs resumable design-space sweeps: it expands a
// declarative JSON grid spec into (predictor configuration, workload)
// points, simulates them all with work-stealing parallelism and the
// shared capture store, and reports the per-workload Pareto frontier of
// accuracy versus storage bits.
//
// Points are fused, with results byte-identical to per-point simulation
// at any width: a workload's btb points run as gangs of up to -gang BTBs
// over one capture walk, and its target-cache points, in units of up to
// -gang sharing a history scheme, replay one walk of the baseline front
// end that the sweep makes once per workload. -gang 1 walks the capture
// once per point.
//
// Usage:
//
//	tcsweep -spec examples/sweeps/frontier-demo.json
//	tcsweep -spec sweep.json
//	tcsweep -spec sweep.json -workers 8 -resume sweep.manifest
//	tcsweep -spec sweep.json -csv all-points.csv -doc frontier.json
//	tcsweep -spec sweep.json -expand
//	tcsweep -spec sweep.json -gang 8 -benchfmt sweep.txt -count 5 -warmup 1 -commit $(git rev-parse HEAD)
//
// With -resume, completed shards are checkpointed atomically: an
// interrupted run — Ctrl-C, SIGTERM, or kill -9 — restarts where it left
// off, and the final report is byte-identical to an uninterrupted run at
// any worker count. Rerunning a finished manifest (same spec and -shard)
// simulates nothing and prints the recorded report again, with -csv and
// -doc if asked. -expand prints the planned gang grouping alongside
// the point list, so the capture walks a gang width makes are visible
// before simulating.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/fsutil"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		specPath = flag.String("spec", "", "grid spec JSON file (\"-\" reads stdin)")
		expand   = flag.Bool("expand", false, "expand the spec, print its points, and exit without simulating")
		workers  = flag.Int("workers", 0, "concurrent simulation workers (0 = one per CPU, 1 = serial)")
		shard    = flag.Int("shard", 0, "points per checkpoint shard (default 32)")
		resume   = flag.String("resume", "", "manifest path: completed shards are recorded there and skipped on restart")
		gang     = flag.Int("gang", 0, "points fused per trace pass (0 = 16, 1 = no fusion)")
		csvPath  = flag.String("csv", "", "write every swept point (with frontier flags) as CSV to this file")
		docPath  = flag.String("doc", "", "write the sweep/v1 result document as JSON to this file")
		telemOut = flag.String("telemetry", "", "write sweep run metrics as JSON to this file")
		quiet    = flag.Bool("quiet", false, "suppress progress lines on stderr")
		throttle = flag.Duration("throttle", 0, "sleep this long after each completed shard (pacing aid for interrupt/resume exercises)")

		benchFmt = flag.String("benchfmt", "", "write per-rep sweep wall time in the standard Go benchmark format to this file")
		count    = flag.Int("count", 1, "repetitions of the whole sweep; each rep adds one result line to -benchfmt")
		warmup   = flag.Int("warmup", 0, "unrecorded warm-up repetitions before the -count recorded ones (prime capture memos)")
		commit   = flag.String("commit", "", "commit id to tag -benchfmt output with")
	)
	flag.Parse()

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		return 2
	}

	if *specPath == "" {
		return fail("tcsweep: -spec is required (examples/sweeps/ holds templates); workloads: %v", workload.Names())
	}
	if *workers < 0 {
		return fail("tcsweep: -workers must be non-negative, got %d", *workers)
	}
	if *shard < 0 {
		return fail("tcsweep: -shard must be non-negative, got %d", *shard)
	}
	if *gang < 0 {
		return fail("tcsweep: -gang must be non-negative, got %d", *gang)
	}
	if *count < 1 {
		return fail("tcsweep: -count must be at least 1, got %d", *count)
	}
	if *warmup < 0 {
		return fail("tcsweep: -warmup must be non-negative, got %d", *warmup)
	}
	if (*count > 1 || *warmup > 0) && *benchFmt == "" {
		return fail("tcsweep: -count/-warmup only make sense with -benchfmt")
	}
	if *benchFmt != "" && *resume != "" {
		return fail("tcsweep: -benchfmt repetitions cannot be combined with -resume (resumed reps would skip the simulation being timed)")
	}
	if *commit != "" && *benchFmt == "" {
		return fail("tcsweep: -commit only makes sense with -benchfmt")
	}

	var data []byte
	var err error
	if *specPath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*specPath)
	}
	if err != nil {
		return fail("tcsweep: %v", err)
	}
	spec, err := sweep.ParseSpec(data)
	if err != nil {
		return fail("tcsweep: %v", err)
	}

	if *expand {
		ex, err := spec.Expand()
		if err != nil {
			return fail("tcsweep: %v", err)
		}
		for _, p := range ex.Points {
			fmt.Println(p.Key())
		}
		fmt.Fprintf(os.Stderr, "tcsweep: %d points (%d invalid combinations skipped)\n",
			len(ex.Points), ex.SkippedInvalid)
		printGangPlan(ex.Points, *shard, *gang)
		return 0
	}

	opts := sweep.Options{
		Workers:      *workers,
		ShardSize:    *shard,
		ManifestPath: *resume,
		GangWidth:    *gang,
	}
	if !*quiet {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *throttle > 0 {
		opts.AfterShard = func(completed, total int) { time.Sleep(*throttle) }
	}

	// First Ctrl-C or SIGTERM cancels the run context: in-flight shards
	// stop at the kernels' next poll, clean shards stay recorded in the
	// manifest, and the process exits asking to be resumed. A second
	// signal terminates the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	// -count reruns the whole sweep, each rep an independent wall-clock
	// sample for tcbenchdiff's significance tests, after -warmup
	// unrecorded reps have primed the capture memos. Results are
	// deterministic, so every rep's outcome is identical; only the
	// recorded timings vary.
	var (
		outcome *sweep.Outcome
		wall    time.Duration
		walls   []time.Duration
		// The last rep's btb points that ran on another's BTB, and its
		// target-cache points that took another's result.
		sharedBTBs, sharedTCs int64
	)
	for rep := 1 - *warmup; rep <= *count; rep++ {
		start, btbs, tcs := time.Now(), sim.SharedBTBs(), sim.SharedTargetCaches()
		outcome, err = sweep.Run(ctx, spec, opts)
		wall = time.Since(start)
		sharedBTBs, sharedTCs = sim.SharedBTBs()-btbs, sim.SharedTargetCaches()-tcs
		if err != nil {
			if ctx.Err() != nil && *resume != "" {
				fmt.Fprintf(os.Stderr, "tcsweep: %v\ntcsweep: rerun with -resume %s to finish\n", err, *resume)
				return 1
			}
			return fail("tcsweep: %v", err)
		}
		if rep >= 1 {
			walls = append(walls, wall)
		}
	}

	report := outcome.Report()
	report.Render(os.Stdout)

	if *csvPath != "" {
		if err := fsutil.WriteFileAtomic(*csvPath, func(w io.Writer) error { return report.WriteCSV(w) }); err != nil {
			return fail("tcsweep: %v", err)
		}
	}
	if *docPath != "" {
		docBytes, err := report.Document().Encode()
		if err != nil {
			return fail("tcsweep: %v", err)
		}
		if err := fsutil.WriteFileAtomic(*docPath, func(w io.Writer) error {
			_, werr := w.Write(docBytes)
			return werr
		}); err != nil {
			return fail("tcsweep: %v", err)
		}
	}

	if *benchFmt != "" {
		if err := writeBenchFmt(*benchFmt, spec.Name, spec.Budget, *gang, *workers, *commit, walls, outcome); err != nil {
			return fail("tcsweep: %v", err)
		}
	}

	if *telemOut != "" {
		frontier := 0
		for _, row := range report.Rows {
			if row.Frontier {
				frontier++
			}
		}
		replayCalls, captureCount := workload.MemoCounters()
		metrics := telemetry.NewSweepMetrics(telemetry.SweepInfo{
			Spec:               spec.Name,
			Fingerprint:        outcome.Fingerprint,
			Workers:            *workers,
			Wall:               wall,
			Points:             len(outcome.Results),
			FrontierPoints:     frontier,
			SkippedInvalid:     outcome.SkippedInvalid,
			Shards:             outcome.Shards,
			ResumedShards:      outcome.ResumedShards,
			Instructions:       outcome.SimulatedInstructions,
			MemoCaptures:       captureCount,
			MemoHits:           replayCalls - captureCount,
			GangWidth:          *gang,
			FusedGangs:         outcome.FusedGangs,
			FusedPoints:        outcome.FusedPoints,
			DirectPoints:       outcome.DirectPoints,
			GangFallbacks:      outcome.GangFallbacks,
			SharedBTBs:         sharedBTBs,
			SharedTargetCaches: sharedTCs,
		})
		if err := fsutil.WriteFileAtomic(*telemOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(metrics)
		}); err != nil {
			return fail("tcsweep: %v", err)
		}
	}
	return 0
}

// printGangPlan summarizes the planned execution on stderr: capture
// walks per workload — btb gangs and direct points, plus the kept
// front-end walk the target-cache units replay — and the unit-width
// distributions.
func printGangPlan(points []sweep.Point, shardSize, width int) {
	plans := sweep.PlanGangs(points, shardSize, width)
	mode := fmt.Sprintf("width %d", width)
	if width == 0 {
		mode = "default width 16"
	}
	fmt.Fprintf(os.Stderr, "tcsweep: gang plan (%s):\n", mode)
	for _, pl := range plans {
		var parts []string
		if len(pl.Gangs) > 0 {
			parts = append(parts, widthCounts(pl.Gangs)+" walks")
		}
		if len(pl.Replays) > 0 {
			parts = append(parts, "1 kept walk replayed by "+widthCounts(pl.Replays)+" units")
		}
		fmt.Fprintf(os.Stderr, "tcsweep:   %-8s %4d points in %4d passes (%s)\n",
			pl.Workload, pl.Points, pl.Passes, strings.Join(parts, "; "))
	}
}

// widthCounts renders a width histogram, widest first: "2x16-point,
// 1x4-point".
func widthCounts(counts map[int]int) string {
	widths := make([]int, 0, len(counts))
	for w := range counts {
		widths = append(widths, w)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(widths)))
	parts := make([]string, len(widths))
	for i, w := range widths {
		parts[i] = fmt.Sprintf("%dx%d-point", counts[w], w)
	}
	return strings.Join(parts, ", ")
}

// writeBenchFmt writes one benchfmt result line per recorded rep:
// wall-clock as ns/op plus the run's work and amortization counters. The
// benchmark name carries only the spec, so snapshots taken at different
// gang widths diff cleanly under tcbenchdiff; the width lands in the
// file-level config lines, followed by the machine identity.
func writeBenchFmt(path, specName string, budget int64, gang, workers int, commit string, walls []time.Duration, outcome *sweep.Outcome) error {
	cfg := []benchfmt.Config{
		{Key: "suite", Value: "tcsweep"},
		{Key: "gang-width", Value: fmt.Sprint(gang)},
		{Key: "workers", Value: fmt.Sprint(workers)},
		{Key: "budget", Value: fmt.Sprint(budget)},
	}
	if commit != "" {
		cfg = append(cfg, benchfmt.Config{Key: "commit", Value: commit})
	}
	cfg = append(cfg, benchfmt.MachineConfig()...)
	return fsutil.WriteFileAtomic(path, func(out io.Writer) error {
		w := benchfmt.NewWriter(out)
		passes := outcome.FusedGangs + outcome.DirectPoints
		for _, wall := range walls {
			res := benchfmt.Result{
				FullName: "BenchmarkSweep/exp=sweep-" + specName,
				Iters:    1,
				Values: []benchfmt.Value{
					{Value: float64(wall.Nanoseconds()), Unit: "ns/op"},
					{Value: float64(len(outcome.Results)), Unit: "points/op"},
					{Value: float64(passes), Unit: "passes/op"},
					{Value: float64(outcome.SimulatedInstructions), Unit: "instrs/op"},
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
