package sim

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sharePoint is a member of TestWalkSharesTargetCaches with the class it
// is known to fall in; "" for a member that keeps its own table.
type sharePoint struct {
	class string
	pt    GangPoint
}

// sharePoints are members over one 16-bit pattern register whose classes
// on the first 60k records of gcc are known: the test checks each
// reason against the walk's events before it relies on it.
func sharePoints() []sharePoint {
	pattern := func(bits int) func() history.Provider {
		return func() history.Provider { return history.NewPatternProvider(bits) }
	}
	tagless := func(entries, hist int) GangPoint {
		cfg := core.TaglessConfig{Entries: entries, Scheme: core.SchemeGshare}
		return GangPoint{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewTagless(cfg) }, pattern(hist)), HistShare: "pattern"}
	}
	tagged := func(entries, ways, tagBits int) GangPoint {
		cfg := core.TaggedConfig{Entries: entries, Ways: ways, Scheme: core.SchemeHistoryXor, HistBits: 9, TagBits: tagBits}
		return GangPoint{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewTagged(cfg) }, pattern(9)), HistShare: "pattern"}
	}
	collecting := tagless(64, 9)
	collecting.Config.Telemetry = telemetry.NewCollector(telemetry.Config{Events: 16})
	ittage := GangPoint{Config: DefaultConfig().WithTargetCache(
		func() core.TargetCache { return core.NewITTAGE(core.DefaultITTAGEConfig()) }, pattern(16)), HistShare: "pattern"}
	return []sharePoint{
		// History past the index width: a 64-entry gshare indexes with 6
		// bits of any deeper history.
		{"gshare-64", tagless(64, 9)},
		{"gshare-64", tagless(64, 12)},
		{"gshare-64", tagless(64, 16)},
		// Tables larger than the keys seen: no two keys share an entry.
		{"gshare-exact", tagless(8192, 9)},
		{"gshare-exact", tagless(16384, 9)},
		// Tag bits past any collision: every tag fits in 16 bits.
		{"xor-4way", tagged(256, 4, 32)},
		{"xor-4way", tagged(256, 4, 16)},
		// The same 64 sets and lines as xor-4way, but sets overflow, and
		// the ways differ.
		{"xor-1way", tagged(64, 1, 32)},
		{"xor-2way", tagged(128, 2, 32)},
		// One set that never overflows: its lines are the keys, as in
		// gshare-exact, but it is tagged.
		{"xor-1set", tagged(4096, 4096, 32)},
		// 6-bit tags collide where full ones do not.
		{"xor-16set", tagged(64, 4, 32)},
		{"xor-16set-6bit", tagged(64, 4, 6)},
		// Members that keep their own table.
		{"", collecting},
		{"", GangPoint{Config: DefaultConfig()}},
		{"", ittage},
	}
}

// slotTrace is one member's slots at a walk's events, labelled by first
// use: the sharing rule's inputs, computed event by event.
type slotTrace struct {
	family   int
	slots    []int // per event, its slot's label
	sets     []int // per event, its set's label (tagged)
	ways     int
	overflow bool // some set gets more trained lines than it has ways
}

// traceSlots computes pt's slotTrace over w's events directly from the
// cache's Slot, without share.go's distinct keys.
func traceSlots(w *Walk, pt GangPoint) slotTrace {
	reg := w.regs[pt.HistShare]
	mask := readMask(pt.Config.NewHistory().Len(), w.depths[reg])
	tc := pt.Config.NewTargetCache()
	var st slotTrace
	slotLab, setLab := map[[2]uint64]int{}, map[int]int{}
	trained := map[int]map[[2]uint64]bool{}
	label := func(m map[[2]uint64]int, k [2]uint64) int {
		if l, ok := m[k]; ok {
			return l
		}
		m[k] = len(m)
		return m[k]
	}
	nh := len(w.depths)
	for _, c := range w.chunks {
		for ei, ev := range c.events {
			h := c.hvals[ei*nh+int(reg)] & mask
			switch tc := tc.(type) {
			case *core.Tagless:
				st.family = familyTagless
				st.slots = append(st.slots, label(slotLab, [2]uint64{tc.Slot(ev.pc, h)}))
			case *core.Tagged:
				st.family, st.ways = familyTagged, tc.Config().Ways
				set, tag := tc.Slot(ev.pc, h)
				line := [2]uint64{uint64(set), tag}
				st.slots = append(st.slots, label(slotLab, line))
				if _, ok := setLab[set]; !ok {
					setLab[set] = len(setLab)
				}
				st.sets = append(st.sets, setLab[set])
				if ev.cls == trace.ClassIndJump || ev.cls == trace.ClassIndCall {
					if trained[set] == nil {
						trained[set] = map[[2]uint64]bool{}
					}
					trained[set][line] = true
					st.overflow = st.overflow || len(trained[set]) > st.ways
				}
			}
		}
	}
	return st
}

// alike is the sharing rule: equal families and slot sequences, and for
// tagged members either no overflow in either, or equal ways and set
// sequences.
func alike(a, b slotTrace) bool {
	if a.family != b.family || !slices.Equal(a.slots, b.slots) {
		return false
	}
	return !a.overflow && !b.overflow || a.ways == b.ways && slices.Equal(a.sets, b.sets)
}

// distinctSlots counts the distinct labels of s.
func distinctSlots(s []int) int { return slices.Max(append(s, -1)) + 1 }

// TestWalkSharesTargetCaches pins which members of a kept walk's replay
// simulate a table. It first checks each member's known class against
// the rule applied event by event, and the reason each class holds or
// splits: the 64-entry gshare has colliding keys, so it is not exact
// like the large ones; the large ones and the one-set tagged cache see
// every key in its own slot; 6-bit tags merge lines; 1- and 2-way sets
// overflow. Then the replay must simulate exactly one member per class,
// plus every member that keeps its own table, give each member the
// result of its own solo run, and count the rest in SharedTargetCaches.
// A second replay over the same walk simulates no class member at all.
func TestWalkSharesTargetCaches(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx := context.Background()
	sps := sharePoints()
	pts := make([]GangPoint, len(sps))
	for i, sp := range sps {
		pts[i] = sp.pt
	}
	walk, err := WalkFrontEnd(ctx, rep, budget, pts)
	if err != nil {
		t.Fatal(err)
	}

	traces := map[string]slotTrace{}
	classes := map[string]bool{}
	members := 0 // in a class
	for i, sp := range sps {
		if sp.class == "" {
			continue
		}
		classes[sp.class] = true
		members++
		st := traceSlots(walk, sp.pt)
		for j, other := range sps[:i] {
			if other.class == "" {
				continue
			}
			if want := other.class == sp.class; alike(st, traceSlots(walk, other.pt)) != want {
				t.Fatalf("members %d (%s) and %d (%s): alike = %v, want %v", j, other.class, i, sp.class, !want, want)
			}
		}
		if _, ok := traces[sp.class]; !ok {
			traces[sp.class] = st
		}
	}
	events := len(traces["gshare-64"].slots)
	if n := distinctSlots(traces["gshare-exact"].slots); n == distinctSlots(traces["gshare-64"].slots) {
		t.Fatalf("the 64-entry gshare puts every one of %d keys in its own entry; the geometries no longer test exactness", n)
	}
	if a, b := traces["gshare-exact"].slots, traces["xor-1set"].slots; !slices.Equal(a, b) || traces["xor-1set"].overflow {
		t.Fatal("the one-set tagged cache does not see the large gshares' slots without overflow")
	}
	if distinctSlots(traces["xor-16set-6bit"].slots) >= distinctSlots(traces["xor-16set"].slots) {
		t.Fatal("6-bit tags merge no lines")
	}
	if !traces["xor-1way"].overflow || !traces["xor-2way"].overflow {
		t.Fatal("the 1- and 2-way caches do not overflow")
	}
	t.Logf("%d events, %d classes", events, len(classes))

	solo := make([]AccuracyResult, len(pts))
	for i, pt := range pts {
		if pt.Config.Telemetry != nil {
			pt.Config.Telemetry = telemetry.NewCollector(telemetry.Config{Events: 16})
		}
		solo[i] = runGang(t, ctx, rep, Options{Budget: budget}, []GangPoint{pt})[0]
	}
	for round, wantShared := range []int{members - len(classes), members} {
		before := SharedTargetCaches()
		got, err := walk.RunGang(ctx, pts)
		if err != nil {
			t.Fatal(err)
		}
		if shared := SharedTargetCaches() - before; shared != int64(wantShared) {
			t.Errorf("round %d: %d members shared a result, want %d", round, shared, wantShared)
		}
		for i := range pts {
			if got[i] != solo[i] {
				t.Errorf("round %d member %d (%s): replay diverges from its solo run\n  replay %+v\n  solo   %+v", round, i, sps[i].class, got[i], solo[i])
			}
		}
	}
	n := 0
	for _, cands := range walk.classes.table {
		n += len(cands)
	}
	if n != len(classes) {
		t.Errorf("the walk holds %d classes, want %d", n, len(classes))
	}
}

// TestConcurrentRunGangShares runs two replays of overlapping gangs over
// one walk at once, so each may wait on classes the other claimed, and
// requires every member's solo result. Run it under -race.
func TestConcurrentRunGangShares(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx := context.Background()
	var pts []GangPoint
	for _, sp := range sharePoints() {
		if sp.pt.Config.Telemetry == nil {
			pts = append(pts, sp.pt)
		}
	}
	solo := make([]AccuracyResult, len(pts))
	for i, pt := range pts {
		solo[i] = runGang(t, ctx, rep, Options{Budget: budget}, []GangPoint{pt})[0]
	}
	for round := 0; round < 4; round++ {
		walk, err := WalkFrontEnd(ctx, rep, budget, pts)
		if err != nil {
			t.Fatal(err)
		}
		// Opposite orders, so each gang claims some classes first.
		gangs := [][]int{{0, 3, 5, 7, 9, 1, 4, 6, 8, 10, 11}, {10, 8, 6, 4, 2, 11, 9, 7, 5, 3, 0}}
		var wg sync.WaitGroup
		for _, idx := range gangs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gang := make([]GangPoint, len(idx))
				for k, i := range idx {
					gang[k] = pts[i]
				}
				got, err := walk.RunGang(ctx, gang)
				if err != nil {
					t.Error(err)
					return
				}
				for k, i := range idx {
					if got[k] != solo[i] {
						t.Errorf("round %d member %d: concurrent replay diverges from its solo run", round, i)
					}
				}
			}()
		}
		wg.Wait()
	}
}
