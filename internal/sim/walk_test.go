package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/btb"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// engineRun is the reference a fused result must equal: the streaming
// Engine loop over rep, the structures reset every flush instructions.
func engineRun(t testing.TB, rep *trace.Replay, budget, flush int64, cfg Config) AccuracyResult {
	t.Helper()
	return runOne(t, context.Background(), opaqueFactory{rep}, Options{Budget: budget, FlushInterval: flush}, cfg)
}

// TestBTBGangMatchesEngine pins the BTB gang — members differing only in
// their BTB, sharing one RAS and direction predictor — against the
// streaming Engine loop: for every member, with and without flushes, with
// no member collecting and with most of them collecting, the same
// AccuracyResult, the same telemetry and the same mispredict bits. Both
// update strategies have members whose BTB evicts and members whose BTB
// holds every taken PC, which run on one BTB per strategy
// (TestBTBGangShares) unless a collector keeps them on their own.
func TestBTBGangMatchesEngine(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	newCol := func() *telemetry.Collector { return telemetry.NewCollector(telemetry.Config{Events: 64}) }
	for _, flush := range []int64{0, 7_777} {
		for _, collect := range []bool{false, true} {
			pts := btbGangPoints()
			bits := make([]BranchBits, len(pts))
			for i := range pts {
				if i%2 == 0 {
					pts[i].Mispredicts = &bits[i]
				}
				if collect && i%3 != 2 {
					pts[i].Config.Telemetry = newCol()
				}
			}
			got := runGang(t, context.Background(), rep, Options{Budget: budget, FlushInterval: flush}, pts)
			for i, pt := range pts {
				cfg := pt.Config
				if cfg.Telemetry != nil {
					cfg.Telemetry = newCol()
				}
				if want := engineRun(t, rep, budget, flush, cfg); got[i] != want {
					t.Errorf("flush %d, collect %v, member %d: diverges from the engine\n  gang   %+v\n  engine %+v", flush, collect, i, got[i], want)
				}
				if !reflect.DeepEqual(pt.Config.Telemetry, cfg.Telemetry) {
					t.Errorf("flush %d, collect %v, member %d: telemetry diverges from the engine's", flush, collect, i)
				}
				if pt.Mispredicts == nil {
					continue
				}
				if ref := referenceBits(rep.Open(), budget, flush, cfg); !sameBits(bits[i], ref, got[i].Branches) {
					t.Errorf("flush %d, collect %v, member %d: mispredict bits differ from the engine's", flush, collect, i)
				}
			}
		}
	}
}

// TestBTBGangShares pins which members of a BTB gang simulate a BTB. Of
// the members whose BTB holds every taken PC of the span, exactly one per
// update strategy does, the first, and every later one runs on it, unless
// it carries a collector; a member whose BTB evicts runs its own. A scan
// that cannot finish shares nothing. SharedBTBs counts each shared member
// once per pass.
func TestBTBGangShares(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx := context.Background()
	pcs, ok := takenPCs(ctx, rep, budget)
	if !ok {
		t.Fatal("the scan of a healthy capture failed")
	}
	sp := span{bs: rep, end: budget}
	pts := btbGangPoints()
	g := newGang(ctx, sp, pts)
	first := map[btb.Strategy]*gangMember{}
	held, evicting, simulated := map[btb.Strategy]int{}, map[btb.Strategy]int{}, map[btb.Strategy]int{}
	shared := int64(0)
	for i, pt := range pts {
		m, cfg := &g.members[i], pt.Config.BTB
		if (m.btb == nil) == (m.on == nil) {
			t.Fatalf("member %d (%+v): own BTB %v, runs on another's %v; want exactly one", i, cfg, m.btb != nil, m.on != nil)
		}
		if !cfg.Holds(pcs) {
			evicting[cfg.Strategy]++
			if m.btb == nil {
				t.Errorf("member %d (%+v) evicts but runs on another's BTB", i, cfg)
			}
			continue
		}
		held[cfg.Strategy]++
		if first[cfg.Strategy] == nil {
			first[cfg.Strategy] = m
		}
		if m.btb != nil {
			simulated[cfg.Strategy]++
		} else if shared++; m.on != first[cfg.Strategy] {
			t.Errorf("member %d (%+v) runs on a BTB other than its strategy's first holding member's", i, cfg)
		}
	}
	for _, strat := range []btb.Strategy{btb.StrategyDefault, btb.StrategyTwoBit} {
		if held[strat] < 2 || evicting[strat] < 1 {
			t.Fatalf("%v: %d holding and %d evicting members; want at least 2 and 1", strat, held[strat], evicting[strat])
		}
		if simulated[strat] != 1 {
			t.Errorf("%v: %d of %d holding members simulate a BTB, want 1", strat, simulated[strat], held[strat])
		}
	}

	last := len(pts) - 1
	pts[last].Config.Telemetry = telemetry.NewCollector(telemetry.Config{})
	if g := newGang(ctx, sp, pts); g.members[last].btb == nil {
		t.Error("a holding member with a collector runs on another's BTB")
	}
	pts[last].Config.Telemetry = nil
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	damaged := damagedStore(t, rep)
	for name, g := range map[string]*gang{
		"cancelled":       newGang(cancelled, sp, pts),
		"damaged capture": newGang(ctx, span{bs: damaged, end: budget}, pts),
	} {
		for i := range g.members {
			if g.members[i].btb == nil {
				t.Errorf("%s: member %d runs on another's BTB", name, i)
			}
		}
	}

	before := SharedBTBs()
	runGang(t, ctx, rep, Options{Budget: budget}, pts)
	if got := SharedBTBs() - before; got != shared {
		t.Errorf("SharedBTBs rose by %d, want %d", got, shared)
	}
}

// sameBits reports whether a and b agree on branches [0, n).
func sameBits(a, b BranchBits, n int64) bool {
	for i := int64(0); i < n; i++ {
		if a.Has(i) != b.Has(i) {
			return false
		}
	}
	return true
}

// walkPoints is gangPoints with its private-history member keyed too, as
// a walk's members must be: its 9-bit pattern history under key.
func walkPoints(key string) []GangPoint {
	pts := gangPoints()
	for i := range pts {
		if pts[i].HistShare == "" && pts[i].Config.NewTargetCache != nil {
			pts[i].HistShare = key
		}
	}
	return pts
}

// TestWalkMatchesEngine pins the kept front-end walk: a gang replayed
// over it — all of gangPoints' members with sharePoints' tagless and
// tagged geometries (exact, overflowing, 6-bit tags), every subset of
// one, and members reading shallower depths of a walked register —
// reports for every member the AccuracyResult and telemetry of the
// streaming Engine loop, on perl and on gcc. The subsets replay the same
// walk, so most of their members take a class's result.
func TestWalkMatchesEngine(t *testing.T) {
	for _, name := range []string{"perl", "gcc"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		const budget = 60_000
		rep := trace.Capture(trace.NewLimit(w.Open(), budget))
		ctx := context.Background()
		points := func() []GangPoint {
			pts := schemeKeyed(walkPoints("pattern"))
			for _, sp := range sharePoints() {
				if sp.class != "" {
					pts = append(pts, sp.pt)
				}
			}
			return pts
		}
		walk, err := WalkFrontEnd(ctx, rep, budget, points())
		if err != nil {
			t.Fatal(err)
		}
		newCol := func() *telemetry.Collector { return telemetry.NewCollector(telemetry.Config{Events: 64}) }
		all := points()
		units := [][]GangPoint{all}
		for i := range all {
			units = append(units, points()[i:i+1])
		}
		for ui, pts := range units {
			for i := range pts {
				if i%2 == 0 {
					pts[i].Config.Telemetry = newCol()
				}
			}
			got, err := walk.RunGang(ctx, pts)
			if err != nil {
				t.Fatalf("%s unit %d: %v", name, ui, err)
			}
			for i, pt := range pts {
				cfg := pt.Config
				if cfg.Telemetry != nil {
					cfg.Telemetry = newCol()
				}
				if want := engineRun(t, rep, budget, 0, cfg); got[i] != want {
					t.Errorf("%s unit %d member %d: replay diverges from the engine\n  replay %+v\n  engine %+v", name, ui, i, got[i], want)
				}
				if !reflect.DeepEqual(pt.Config.Telemetry, cfg.Telemetry) {
					t.Errorf("%s unit %d member %d: telemetry diverges from the engine's", name, ui, i)
				}
			}
		}
	}
}

// TestWalkRefusals pins what a kept walk will not serve, and that a walk
// that cannot complete keeps nothing.
func TestWalkRefusals(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx := context.Background()
	pts := walkPoints("pattern#9") // keyed by depth: pattern#9, pattern#6, path-indjmp#8
	walk, err := WalkFrontEnd(ctx, rep, budget, pts)
	if err != nil {
		t.Fatal(err)
	}

	refused := map[string]func([]GangPoint){
		"unwalked-register": func(p []GangPoint) { p[0].HistShare = "pattern#12" },
		"deeper-than-walked": func(p []GangPoint) {
			p[0].HistShare = "pattern#6" // a 9-bit member on the 6-bit register
		},
		"private-history":    func(p []GangPoint) { p[0].HistShare = "" },
		"mispredict-bits":    func(p []GangPoint) { p[0].Mispredicts = new(BranchBits) },
		"other-front-end":    func(p []GangPoint) { p[0].Config.RASDepth = 8 },
		"other-btb-geometry": func(p []GangPoint) { p[1].Config.BTB.Ways = 2 },
	}
	for name, mutate := range refused {
		p := walkPoints("pattern#9")
		mutate(p)
		if _, err := walk.RunGang(ctx, p); err == nil {
			t.Errorf("%s: the walk served a gang it did not walk for", name)
		}
	}
	if _, err := walk.RunGang(ctx, nil); err == nil {
		t.Error("the walk served an empty gang")
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	res, err := walk.RunGang(cancelled, pts)
	if err != nil {
		t.Fatalf("the walk refused the members it walked for: %v", err)
	}
	for _, res := range res {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("replay under a cancelled context: Err = %v, want context.Canceled", res.Err)
		}
	}

	for name, walkErr := range map[string]func() error{
		"damaged-store": func() error { _, err := WalkFrontEnd(ctx, damagedStore(t, rep), budget, pts); return err },
		"cancelled":     func() error { _, err := WalkFrontEnd(cancelled, rep, budget, pts); return err },
		"streaming":     func() error { _, err := WalkFrontEnd(ctx, opaqueFactory{rep}, budget, pts); return err },
		"no-share-key": func() error {
			p := walkPoints("pattern#9")
			p[0].HistShare = ""
			_, err := WalkFrontEnd(ctx, rep, budget, p)
			return err
		},
		"mixed-front-end": func() error {
			p := walkPoints("pattern#9")
			p[1].Config.BTB.Ways = 2
			_, err := WalkFrontEnd(ctx, rep, budget, p)
			return err
		},
	} {
		if err := walkErr(); err == nil {
			t.Errorf("%s: the walk succeeded", name)
		} else if name == "damaged-store" && !errors.Is(err, trace.ErrCorrupt) {
			t.Errorf("damaged store: err = %v, want one wrapping trace.ErrCorrupt", err)
		}
	}
}
