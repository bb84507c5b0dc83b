package main

// metric declares one reported number. BENCHMARK.json at the repository
// root must declare exactly these metrics with the same units and
// directions; TestBenchmarkJSONMatchesHarness enforces it.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves and On record, for a per-layer metric, the end-to-end metric
	// a change to that layer should move and the workloads where it
	// should show.
	Moves string
	On    []string
}

// Workload names, in BENCHMARK.json order.
const (
	wPaperAccuracy = "paper-accuracy"
	wPaperTiming   = "paper-timing"
	wSweepFused    = "sweep-fused"
	wColdSpill     = "cold-spill"
)

var allWorkloads = []string{wPaperAccuracy, wPaperTiming, wSweepFused, wColdSpill}

// endToEnd are the metrics a user of tcsim and tcsweep sees, printed by
// every untraced run. Failures are not a metric here: they are the
// result's attempted/failed counts, because a metric must never read 0.
// Each bound sits above the largest quartile spread measured across ten
// runs on any workload (README.md, Baseline): memory holds within 5%, so
// peak_rss_mib gets 10%. Host time on a shared 2-vCPU machine drifts by up
// to 17% between runs of the same seed, so the time metrics get 25%;
// set-up time, the shortest and noisiest, gets a bound no other metric
// exceeds.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s/rep", Better: "lower", Bound: 0.25},
	{Name: "sim_minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.10},
}

var (
	paperBoth = []string{wPaperAccuracy, wPaperTiming}
	everyLoad = allWorkloads
)

// perLayer are the metrics of single layers, printed by every traced run.
// Each is measured on every workload: the layers phase drives the layer's
// public calls over that workload's own programs and configurations.
var perLayer = []metric{
	{Name: "vm.ns_per_instr", Unit: "ns/instr", Better: "lower", Moves: "setup_s", On: everyLoad},
	{Name: "workload.capture.ns_per_instr", Unit: "ns/instr", Better: "lower", Moves: "setup_s", On: []string{wPaperAccuracy, wPaperTiming, wSweepFused}},
	{Name: "workload.memo_mib", Unit: "MiB", Better: "lower", Moves: "peak_rss_mib", On: []string{wPaperAccuracy, wPaperTiming, wSweepFused}},
	{Name: "workload.memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: "setup_s", On: []string{wPaperAccuracy, wPaperTiming, wSweepFused}},

	{Name: "trace.write.ns_per_record", Unit: "ns/record", Better: "lower", Moves: "wall_s", On: []string{wColdSpill}},
	{Name: "trace.write.bytes_per_record", Unit: "B/record", Better: "lower", Moves: "wall_s", On: []string{wColdSpill}},
	{Name: "trace.read_store.ns_per_record", Unit: "ns/record", Better: "lower", Moves: "wall_s", On: []string{wColdSpill}},
	{Name: "trace.read_store.alloc_b_per_record", Unit: "B/record", Better: "lower", Moves: "peak_rss_mib", On: []string{wColdSpill}},
	{Name: "trace.store.hit_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s", On: []string{wColdSpill}},
	{Name: "trace.read_mem.ns_per_record", Unit: "ns/record", Better: "lower", Moves: "wall_s", On: []string{wPaperAccuracy}},

	{Name: "history.pattern.ns_per_record", Unit: "ns/record", Better: "lower", Moves: "wall_s", On: paperBoth},
	{Name: "history.path.ns_per_record", Unit: "ns/record", Better: "lower", Moves: "wall_s", On: paperBoth},
	{Name: "history.path_peraddr.ns_per_record", Unit: "ns/record", Better: "lower", Moves: "wall_s", On: paperBoth},

	{Name: "btb.ns_per_branch", Unit: "ns/branch", Better: "lower", Moves: "wall_s", On: paperBoth},
	{Name: "btb.hit_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s", On: paperBoth},
	{Name: "dirpred.ns_per_cond", Unit: "ns/branch", Better: "lower", Moves: "wall_s", On: paperBoth},
	{Name: "dirpred.correct_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s", On: paperBoth},

	{Name: "core.tagless.ns_per_indirect", Unit: "ns/indirect", Better: "lower", Moves: "wall_s", On: []string{wSweepFused, wPaperAccuracy}},
	{Name: "core.tagless.correct_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s", On: []string{wSweepFused, wPaperAccuracy}},
	{Name: "core.tagged.ns_per_indirect", Unit: "ns/indirect", Better: "lower", Moves: "wall_s", On: []string{wSweepFused, wPaperAccuracy}},
	{Name: "core.tagged.correct_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s", On: []string{wSweepFused, wPaperAccuracy}},
	{Name: "core.cascaded.ns_per_indirect", Unit: "ns/indirect", Better: "lower", Moves: "wall_s", On: []string{wSweepFused, wPaperAccuracy}},
	{Name: "core.cascaded.correct_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s", On: []string{wSweepFused, wPaperAccuracy}},
	{Name: "core.ittage.ns_per_indirect", Unit: "ns/indirect", Better: "lower", Moves: "wall_s", On: []string{wSweepFused, wPaperAccuracy}},
	{Name: "core.ittage.correct_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s", On: []string{wSweepFused, wPaperAccuracy}},
	{Name: "core.chooser.ns_per_indirect", Unit: "ns/indirect", Better: "lower", Moves: "wall_s", On: []string{wPaperAccuracy}},
	{Name: "core.chooser.correct_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s", On: []string{wPaperAccuracy}},

	{Name: "sim.solo.ns_per_instr", Unit: "ns/instr", Better: "lower", Moves: "wall_s", On: []string{wPaperAccuracy, wColdSpill}},
	{Name: "sim.baseline.ns_per_instr", Unit: "ns/instr", Better: "lower", Moves: "wall_s", On: []string{wSweepFused, wPaperAccuracy}},
	{Name: "sim.gang.ns_per_member_instr", Unit: "ns/instr", Better: "lower", Moves: "wall_s", On: []string{wSweepFused}},
	{Name: "sim.gang.fallbacks", Unit: "count", Better: "lower", Moves: "wall_s", On: []string{wSweepFused}},

	{Name: "cpu.replay.ns_per_instr", Unit: "ns/instr", Better: "lower", Moves: "wall_s", On: []string{wPaperTiming}},
	{Name: "cpu.event.ns_per_instr", Unit: "ns/instr", Better: "lower", Moves: "wall_s", On: []string{wPaperTiming}},

	{Name: "pool.ns_per_item", Unit: "ns/item", Better: "lower", Moves: "wall_s", On: everyLoad},
	{Name: "proc.cpu_s_per_rep", Unit: "s", Better: "lower", Moves: "wall_s", On: everyLoad},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "higher", Moves: "wall_s", On: everyLoad},

	{Name: "sweep.expand_ms", Unit: "ms", Better: "lower", Moves: "wall_s", On: []string{wSweepFused}},
	{Name: "sweep.plan_ms", Unit: "ms", Better: "lower", Moves: "wall_s", On: []string{wSweepFused}},
	{Name: "sweep.passes_avoided_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s", On: []string{wSweepFused}},

	{Name: "runtime.alloc_mib_per_rep", Unit: "MiB", Better: "lower", Moves: "peak_rss_mib", On: []string{wColdSpill}},
	{Name: "runtime.gc_cycles_per_rep", Unit: "count", Better: "lower", Moves: "wall_s", On: []string{wColdSpill}},
	{Name: "runtime.gc_pause_ms_per_rep", Unit: "ms", Better: "lower", Moves: "wall_s", On: []string{wColdSpill}},

	// The ledger metrics check the measurement itself rather than name a
	// tuning target: the share of wall_s the layer costs account for, and
	// what tracing adds to wall_s.
	{Name: "ledger.explained_frac", Unit: "ratio", Better: "higher", Moves: "wall_s", On: []string{wColdSpill}},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: "wall_s", On: everyLoad},
}
