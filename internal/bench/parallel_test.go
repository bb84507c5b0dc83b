package bench

import (
	"encoding/json"
	"runtime"
	"slices"
	"testing"

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
			serial.Segments = 1
			parallel.Parallel = 8
			parallel.Segments = 4
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

// TestPlanSegmentsCountsStartablePasses: a timing plan of two gangs
// resolves its segments from the two gangs alone; the pipeline passes
// that wait on them do not count. Workers past GOMAXPROCS do not count
// either: a segment no idle core runs only adds priming work.
func TestPlanSegmentsCountsStartablePasses(t *testing.T) {
	var cells []*groupCell
	for _, name := range []string{"perl", "gcc"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := &groupCell{}
		c.timing(w, sim.DefaultConfig(), cpu.DefaultConfig())
		c.timing(w, sim.DefaultConfig(), cpu.DefaultConfig())
		cells = append(cells, c)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ workers, procs, segs int }{{1, 8, 1}, {2, 8, 1}, {4, 8, 2}, {8, 8, 4}, {8, 4, 2}, {8, 2, 1}} {
		runtime.GOMAXPROCS(tc.procs)
		p := Params{Parallel: tc.workers}
		passes := plan(cells, p)
		gangs := 0
		for _, ps := range passes {
			if ps.gang == nil {
				gangs++
			}
		}
		if gangs != 2 {
			t.Fatalf("%d workers: plan holds %d gangs, want 2", tc.workers, gangs)
		}
		if got := p.planSegments(passes); got != tc.segs {
			t.Errorf("%d workers, GOMAXPROCS %d: %d passes (2 gangs) resolve %d segments, want %d", tc.workers, tc.procs, len(passes), got, tc.segs)
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
