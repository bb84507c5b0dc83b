package bench

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/btb"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestParallelMatchesSerial is the cell scheduler's core contract: every
// experiment must render byte-identical tables (text and JSON) whether its
// cells run serially or on a worker pool. Two parameter sets guard against
// a budget-dependent ordering sneaking in.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice per parameter set")
	}
	paramSets := []Params{
		{AccuracyBudget: 60_000, TimingBudget: 40_000},
		{AccuracyBudget: 90_000, TimingBudget: 50_000},
	}
	for _, base := range paramSets {
		for _, e := range All() {
			serial, parallel := base, base
			serial.Parallel = 1
			parallel.Parallel = 8
			a := e.Run(serial)
			b := e.Run(parallel)
			if len(a) != len(b) {
				t.Fatalf("%s: %d tables serial vs %d parallel", e.ID, len(a), len(b))
			}
			for i := range a {
				if a[i].String() != b[i].String() {
					t.Errorf("%s (n=%d): table %d differs at -parallel 8:\n--- serial\n%s\n--- parallel\n%s",
						e.ID, base.AccuracyBudget, i, a[i], b[i])
				}
				aj, err := json.Marshal(a[i])
				if err != nil {
					t.Fatal(err)
				}
				bj, err := json.Marshal(b[i])
				if err != nil {
					t.Fatal(err)
				}
				if string(aj) != string(bj) {
					t.Errorf("%s: table %d JSON differs at -parallel 8", e.ID, i)
				}
			}
		}
	}
}

// TestPlanChunksPipelineGroups: an experiment with fewer pipeline groups
// than workers splits each group into ceil(workers/groups) chunks of
// consecutive timing runs, so every worker still times a fused chunk.
func TestPlanChunksPipelineGroups(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	c := &groupCell{}
	for range 7 {
		c.timing(w, sim.DefaultConfig(), cpu.DefaultConfig())
	}
	for _, tc := range []struct {
		workers int
		sizes   []int
	}{
		{1, []int{7}},
		{2, []int{3, 4}},
		{4, []int{1, 2, 2, 2}},
		{8, []int{1, 1, 1, 1, 1, 1, 1}},
	} {
		var sizes []int
		var order []*simRun
		for _, ps := range plan([]*groupCell{c}, Params{Parallel: tc.workers}) {
			if ps.gang != nil {
				sizes, order = append(sizes, len(ps.runs)), append(order, ps.runs...)
			}
		}
		if !slices.Equal(sizes, tc.sizes) || !slices.Equal(order, c.runs) {
			t.Errorf("%d workers: pipeline passes of %v runs (in run order: %v), want %v",
				tc.workers, sizes, slices.Equal(order, c.runs), tc.sizes)
		}
	}
}

// TestPlanPlacesRiders pins where plan puts BTB-only accuracy runs: after
// every other run, each in the first gang of its workload, budget, flush
// interval, BTB geometry and direction predictor, whatever its update
// strategy and RAS depth, or in a gang of its own opened after all the
// others. A gang's runs on its exact front end thus come first, as
// sim.Run's variants must follow them.
func TestPlanPlacesRiders(t *testing.T) {
	perl, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	xlisp, err := workload.ByName("xlisp")
	if err != nil {
		t.Fatal(err)
	}
	twoBit, shallow := sim.DefaultConfig(), sim.DefaultConfig()
	twoBit.BTB.Strategy, shallow.RASDepth = btb.StrategyTwoBit, 8
	c := &groupCell{}
	riders := []*sim.AccuracyResult{
		c.accuracy(perl, 0, twoBit),
		c.accuracy(xlisp, 0, shallow),
	}
	exact := c.accuracy(perl, 0, tcConfig(taglessGshare(512), pattern(9)))
	c.timing(perl, sim.DefaultConfig(), cpu.DefaultConfig())
	riders = append(riders, c.accuracy(perl, 1000, sim.DefaultConfig()), c.accuracy(xlisp, 0, sim.DefaultConfig()))
	want := [][]*sim.AccuracyResult{{exact, riders[0]}, nil, {riders[1], riders[3]}, {riders[2]}}
	var got [][]*sim.AccuracyResult
	for _, ps := range plan([]*groupCell{c}, tinyParams()) {
		if ps.cell != nil || ps.gang != nil || ps.timed != nil {
			continue
		}
		var runs []*sim.AccuracyResult
		for _, r := range ps.runs {
			if r.machine == nil {
				runs = append(runs, &r.res)
			}
		}
		got = append(got, runs)
	}
	if len(got) != len(want) {
		t.Fatalf("%d gangs, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("gang %d: accuracy runs %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPassesPerExperiment pins how many fused accuracy passes (capture
// walks) each experiment runs. BTB-only accuracy runs ride the first
// pass of their workload, budget, flush interval, BTB geometry and
// direction predictor as variants, whatever their update strategy or RAS
// depth, so ras walks each of its three programs once, not once per
// depth (21), and table2 and verify once per program, not once per
// strategy (16 each).
func TestPassesPerExperiment(t *testing.T) {
	want := map[string]int64{
		"table1": 8, "figures1-8": 0, "table2": 8, "table3": 0, "table4": 2,
		"table5": 2, "table6": 2, "table7": 2, "table8": 2, "table9": 2,
		"figures12-13": 2, "ablation-history": 2, "budget": 0, "cbt": 8,
		"context-switch": 10, "cxx": 2, "followups": 10, "ras": 3,
		"sensitivity": 2, "wrongpath": 2, "verify": 8,
	}
	p := tinyParams()
	p.Parallel = 2
	for _, e := range All() {
		before := SnapshotStats()
		e.Run(p)
		if got := SnapshotStats().Sub(before).Passes; got != want[e.ID] {
			t.Errorf("%s: %d fused passes, want %d", e.ID, got, want[e.ID])
		}
	}
}

// TestTraceCapturedOncePerKey pins the memoization guarantee: across an
// experiment's parallel cells the VM runs at most once per (workload,
// budget) key, and a repeat run at the same budgets captures nothing new.
func TestTraceCapturedOncePerKey(t *testing.T) {
	workload.ResetMemo()
	t.Cleanup(workload.ResetMemo)
	base := workload.CaptureCount()

	p := Params{AccuracyBudget: 60_000, TimingBudget: 40_000, Parallel: 8}

	// table2 is accuracy-only over every workload: exactly one key per
	// workload despite two configurations per workload racing for it.
	e, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(p)
	want := int64(len(workload.All()))
	if got := workload.CaptureCount() - base; got != want {
		t.Fatalf("table2 captured %d traces, want %d (one per workload)", got, want)
	}

	// table5 adds timing cells over perl and gcc — but timing budgets are
	// below the accuracy budget, so prefix sharing serves them from the
	// captures table2 already made: no workload may re-capture.
	e, err = ByID("table5")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(p)
	if got := workload.CaptureCount() - base; got != want {
		t.Fatalf("after table5, %d traces captured, want still %d (timing cells share the accuracy captures)", got, want)
	}

	// Re-running both experiments must not execute any VM again.
	mustRun(t, "table2", p)
	mustRun(t, "table5", p)
	if got := workload.CaptureCount() - base; got != want {
		t.Fatalf("re-run captured %d traces, want still %d", got, want)
	}

	keys, bytes := workload.MemoStats()
	if keys != int(want) || bytes <= 0 {
		t.Fatalf("MemoStats() = %d keys, %d bytes; want %d keys and positive size", keys, bytes, want)
	}
}

func mustRun(t *testing.T, id string, p Params) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if tables := e.Run(p); len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
}
