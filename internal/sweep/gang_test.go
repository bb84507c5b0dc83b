package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func planPoints() []Point {
	return []Point{
		{Workload: "perl", Family: "tagless", Scheme: "gshare", History: "pattern", Entries: 64, HistBits: 9},
		{Workload: "perl", Family: "tagless", Scheme: "gshare", History: "pattern", Entries: 128, HistBits: 9},
		{Workload: "perl", Family: "btb", Scheme: "default", Entries: 1024, Ways: 4},
		{Workload: "perl", Family: "tagless", Scheme: "gshare", History: "pattern", Entries: 256, HistBits: 6},
		{Workload: "perl", Family: "tagged", Scheme: "xor", History: "path-indjmp", Entries: 256, Ways: 4, HistBits: 9, TagBits: 32},
		{Workload: "gcc", Family: "tagless", Scheme: "gshare", History: "pattern", Entries: 64, HistBits: 9},
		{Workload: "perl", Family: "tagged", Scheme: "xor", History: "pattern", Entries: 512, Ways: 4, HistBits: 9, TagBits: 32},
		{Workload: "perl", Family: "btb", Scheme: "2bit", Entries: 512, Ways: 2},
	}
}

// TestPlanUnits pins the grouping rule: points group by (workload,
// history scheme) in first-seen order across families — a workload's btb
// points, which have no history, into btb gangs — and widths chunk the
// groups.
func TestPlanUnits(t *testing.T) {
	pts := planPoints()

	units := planUnits(pts, 0, len(pts), 0)
	want := [][]int{
		{0, 1, 3, 6}, // perl+pattern: tagless and tagged fuse together
		{2, 7},       // perl btb: one gang across geometry and strategy
		{4},          // perl+path-indjmp
		{5},          // gcc+pattern: its own unit
	}
	if len(units) != len(want) {
		t.Fatalf("auto width planned %d units %v, want %d", len(units), units, len(want))
	}
	for ui, u := range units {
		if len(u) != len(want[ui]) {
			t.Fatalf("unit %d = %v, want %v", ui, u, want[ui])
		}
		for i := range u {
			if u[i] != want[ui][i] {
				t.Fatalf("unit %d = %v, want %v", ui, u, want[ui])
			}
		}
	}

	// Width 1 disables fusion entirely.
	for _, u := range planUnits(pts, 0, len(pts), 1) {
		if len(u) != 1 {
			t.Fatalf("width 1 planned a %d-point unit", len(u))
		}
	}

	// Width 3 chunks the 4-point pattern group.
	var sizes []int
	for _, u := range planUnits(pts, 0, len(pts), 3) {
		sizes = append(sizes, len(u))
	}
	wantSizes := []int{3, 1, 2, 1, 1}
	if len(sizes) != len(wantSizes) {
		t.Fatalf("width 3 unit sizes %v, want %v", sizes, wantSizes)
	}
	for i := range sizes {
		if sizes[i] != wantSizes[i] {
			t.Fatalf("width 3 unit sizes %v, want %v", sizes, wantSizes)
		}
	}

	// Units never cross the [lo, hi) shard window.
	for _, u := range planUnits(pts, 1, 4, 0) {
		for _, i := range u {
			if i < 1 || i >= 4 {
				t.Fatalf("unit %v escapes shard [1,4)", u)
			}
		}
	}
}

// TestPlanGangs pins the -expand summary: walks, points, btb gangs and
// target-cache units replaying the kept walk, per workload.
func TestPlanGangs(t *testing.T) {
	pts := planPoints()
	plans := PlanGangs(pts, 32, 0)
	if len(plans) != 2 || plans[0].Workload != "perl" || plans[1].Workload != "gcc" {
		t.Fatalf("plans = %+v, want perl then gcc", plans)
	}
	perl := plans[0]
	if perl.Points != 7 || perl.Passes != 2 {
		t.Errorf("perl plan: %d points in %d passes, want 7 in 2 (one kept walk, one btb gang)", perl.Points, perl.Passes)
	}
	if len(perl.Gangs) != 1 || perl.Gangs[2] != 1 {
		t.Errorf("perl walks = %v, want one 2-point btb gang", perl.Gangs)
	}
	if len(perl.Replays) != 2 || perl.Replays[4] != 1 || perl.Replays[1] != 1 {
		t.Errorf("perl replays = %v, want a 4-point and a 1-point unit", perl.Replays)
	}
	if perl.MaxStateBytes <= 0 {
		t.Errorf("perl MaxStateBytes = %d, want > 0", perl.MaxStateBytes)
	}
	if g := plans[1]; g.Points != 1 || g.Passes != 1 || g.Replays[1] != 1 {
		t.Errorf("gcc plan: %d points in %d passes (replays %v), want 1 in 1 replaying the kept walk", g.Points, g.Passes, g.Replays)
	}

	// Width 1 walks the capture once per point.
	for _, pl := range PlanGangs(pts, 32, 1) {
		if pl.Passes != pl.Points || pl.Gangs[1] != pl.Points || len(pl.Replays) != 0 {
			t.Errorf("width 1 %s plan = %+v, want one direct walk per point", pl.Workload, pl)
		}
	}
}

// TestStateBytesAcrossFamilies sanity-checks the planner's footprint
// estimates: positive for every family and monotone in table size.
func TestStateBytesAcrossFamilies(t *testing.T) {
	for _, p := range planPoints() {
		if p.StateBytes() <= 0 {
			t.Errorf("%s: StateBytes = %d, want > 0", p.Key(), p.StateBytes())
		}
	}
	small := Point{Family: "ittage", Stage1: 256, Entries: 128, Tables: 5, TagBits: 9, HistBits: 64, History: "pattern"}
	big := small
	big.Entries = 1024
	if small.StateBytes() >= big.StateBytes() {
		t.Errorf("ittage StateBytes not monotone: %d -> %d", small.StateBytes(), big.StateBytes())
	}
}

// TestPanicRecoveredAsPointError pins the robustness contract: a panic
// inside point simulation (injected via TestPointHook) surfaces as a
// structured per-point sweep error naming the point, never a crash.
func TestPanicRecoveredAsPointError(t *testing.T) {
	spec, err := ParseSpec([]byte(diffSpec))
	if err != nil {
		t.Fatal(err)
	}
	const victim = "gcc/tagless-gshare-e512-h9-pattern"
	TestPointHook = func(key string) {
		if key == victim {
			panic("injected point fault")
		}
	}
	defer func() { TestPointHook = nil }()

	for _, width := range []int{1, 0} {
		_, err := Run(context.Background(), spec, Options{Workers: 2, GangWidth: width})
		if err == nil {
			t.Fatalf("gang=%d: sweep survived a panicking point without error", width)
		}
		var pe *PointError
		if !errors.As(err, &pe) {
			t.Fatalf("gang=%d: error is not a PointError: %v", width, err)
		}
		if !strings.Contains(err.Error(), "injected point fault") || !strings.Contains(err.Error(), victim) {
			t.Errorf("gang=%d: error does not name the fault and point: %v", width, err)
		}
		found := false
		for _, k := range pe.Keys {
			if k == victim {
				found = true
			}
		}
		if !found {
			t.Errorf("gang=%d: PointError.Keys = %v does not include %s", width, pe.Keys, victim)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("gang=%d: PointError carries no stack", width)
		}
	}
}
