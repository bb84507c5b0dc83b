package sim

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// gangPoints builds a history-diverse gang over the paper's baseline front
// end: the BTB-only baseline, every target-cache family, pattern and path
// histories at mixed depths, with share keys marking the members whose
// history configs are identical.
func gangPoints() []GangPoint {
	pattern := func(bits int) func() history.Provider {
		return func() history.Provider { return history.NewPatternProvider(bits) }
	}
	path := func(bits int) func() history.Provider {
		return func() history.Provider {
			return history.NewPath(history.PathConfig{Bits: bits, BitsPerTarget: 1, AddrBitOffset: 2, Filter: history.FilterIndJmp})
		}
	}
	return []GangPoint{
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
			}, pattern(9)), HistShare: "pattern#9"},
		// The BTB-only baseline: no target cache, no history.
		{Config: DefaultConfig()},
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagless(core.TaglessConfig{Entries: 128, Scheme: core.SchemeGAg})
			}, pattern(9)), HistShare: "pattern#9"},
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagged(core.TaggedConfig{Entries: 512, Ways: 4, HistBits: 9})
			}, pattern(6)), HistShare: "pattern#6"},
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewCascaded(core.DefaultCascadedConfig()) },
			path(8)), HistShare: "path-indjmp#8"},
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewITTAGE(core.DefaultITTAGEConfig()) },
			path(8)), HistShare: "path-indjmp#8"},
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.DefaultChooser() },
			pattern(6)), HistShare: "pattern#6"},
		// No share key: a private provider even though pattern#9 exists.
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewLastTarget(256, 2) },
			pattern(9))},
	}
}

// TestGangMatchesSolo pins the fused kernel's equivalence contract: every
// member of a gang reports an AccuracyResult struct-identical to a solo
// RunAccuracy of the same config, at gang widths 1, a mixed prefix, and
// the full history-heterogeneous set.
func TestGangMatchesSolo(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	pts := gangPoints()
	solo := make([]AccuracyResult, len(pts))
	for i, pt := range pts {
		solo[i] = RunAccuracy(rep, budget, pt.Config)
	}
	for _, width := range []int{1, 3, len(pts)} {
		for lo := 0; lo < len(pts); lo += width {
			hi := min(lo+width, len(pts))
			got := runGang(t, context.Background(), rep, Options{Budget: budget}, pts[lo:hi])
			for i, res := range got {
				if res != solo[lo+i] {
					t.Errorf("width %d member %d diverges from solo run\n  gang %+v\n  solo %+v",
						width, lo+i, res, solo[lo+i])
				}
			}
		}
	}
}

// referenceBits is the per-branch record a streaming Engine run of cfg
// makes over the first budget records: bit i set when the i-th branch
// was mispredicted, the structures reset every flush instructions.
func referenceBits(src trace.Source, budget, flush int64, cfg Config) BranchBits {
	e := NewEngine(cfg)
	var out BranchBits
	var r trace.Record
	var n, br int64
	for lim := trace.NewLimit(src, budget); lim.Next(&r); {
		if n++; flush > 0 && n%flush == 0 {
			e.Reset()
		}
		if !r.Class.IsBranch() {
			continue
		}
		p := e.Predict(&r)
		if !p.Correct(&r) {
			out = out.Set(br)
		}
		br++
		e.Resolve(&r, p)
	}
	return out
}

// TestGangMispredictBits pins the bits a gang hands members that ask for
// them: for every member, whatever the flush interval, exactly the
// branches a streaming Engine run of that member alone mispredicts.
// Members that do not ask get none, and asking changes no member's
// AccuracyResult.
func TestGangMispredictBits(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx := context.Background()
	for _, flush := range []int64{0, 7_000} {
		opts := Options{Budget: budget, FlushInterval: flush}
		want := runGang(t, ctx, rep, opts, gangPoints())
		pts := gangPoints()
		bits := make([]BranchBits, len(pts))
		for i := range pts {
			if i != 2 { // one member asks for nothing
				pts[i].Mispredicts = &bits[i]
			}
		}
		got := runGang(t, ctx, rep, opts, pts)
		for i := range pts {
			if got[i] != want[i] {
				t.Errorf("flush %d, member %d: asking for bits changed the result\n  got  %+v\n  want %+v", flush, i, got[i], want[i])
			}
			if pts[i].Mispredicts == nil {
				continue
			}
			ref := referenceBits(rep.Open(), budget, flush, pts[i].Config)
			var n, diff int64
			for b := int64(0); b < got[i].Branches; b++ {
				if bits[i].Has(b) {
					n++
				}
				if bits[i].Has(b) != ref.Has(b) {
					diff++
				}
			}
			if diff != 0 || n != got[i].Overall.Mispredicts || int64(len(bits[i])) != (got[i].Branches+63)/64 {
				t.Errorf("flush %d, member %d: %d of %d branch bits differ from the engine's; %d set, %d mispredicts, %d words",
					flush, i, diff, got[i].Branches, n, got[i].Overall.Mispredicts, len(bits[i]))
			}
		}
	}
}

// TestGangSharedHistoryMatchesPrivate verifies that history sharing is
// invisible in the results: the same gang with all share keys cleared
// (every member gets a private provider) reports identical results, and
// so does the gang keyed by scheme alone, where members of different
// depths read the low bits of one register.
func TestGangSharedHistoryMatchesPrivate(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 40_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	private := gangPoints()
	for i := range private {
		private[i].HistShare = ""
	}
	ctx, opts := context.Background(), Options{Budget: budget}
	want := runGang(t, ctx, rep, opts, private)
	for name, pts := range map[string][]GangPoint{"by depth": gangPoints(), "by scheme": schemeKeyed(gangPoints())} {
		got := runGang(t, ctx, rep, opts, pts)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: member %d: shared-history result diverges from private providers\n  shared  %+v\n  private %+v",
					name, i, got[i], want[i])
			}
		}
	}
}

// schemeKeyed rekeys pts' history sharing by scheme alone ("pattern#9"
// becomes "pattern"), so members of one scheme at different depths share
// a register.
func schemeKeyed(pts []GangPoint) []GangPoint {
	for i := range pts {
		if scheme, _, ok := strings.Cut(pts[i].HistShare, "#"); ok {
			pts[i].HistShare = scheme
		}
	}
	return pts
}

// btbGangPoints are BTB-only members over the paper's RAS and direction
// predictor that differ in BTB geometry and update strategy. On the
// first 60k records of gcc the first four geometries evict and the last
// three hold every taken PC; on shorter or smaller captures more of them
// hold.
func btbGangPoints() []GangPoint {
	var pts []GangPoint
	for _, geo := range []struct{ sets, ways int }{{256, 4}, {64, 2}, {512, 1}, {128, 8}, {4096, 4}, {1024, 8}, {2048, 2}} {
		for _, strat := range []btb.Strategy{btb.StrategyDefault, btb.StrategyTwoBit} {
			cfg := DefaultConfig()
			cfg.BTB = btb.Config{Sets: geo.sets, Ways: geo.ways, Strategy: strat}
			pts = append(pts, GangPoint{Config: cfg})
		}
	}
	return pts
}

// TestGangFallbackConditions enumerates every condition under which Run
// must refuse a gang, running nothing, and pins that a member without a
// target cache and a factory with no decoded BlockSource are not among
// them. Every case also pins RunAccuracyGang to Run: it refuses exactly
// what Run refuses and otherwise reports Run's results.
func TestGangFallbackConditions(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 10_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	base := gangPoints()
	run := func(t *testing.T, factory trace.Factory, pts []GangPoint) ([]AccuracyResult, error) {
		t.Helper()
		res, err := Run(context.Background(), factory, Options{Budget: budget}, pts)
		if old, ok := RunAccuracyGang(factory, budget, pts); ok != (err == nil) || !slices.Equal(old, res) {
			t.Errorf("RunAccuracyGang (ok %v) disagrees with Run (err %v)", ok, err)
		}
		return res, err
	}
	// matchSolo runs pts over factory and requires every member to score
	// exactly as its solo run over the capture.
	matchSolo := func(t *testing.T, factory trace.Factory, pts []GangPoint) {
		t.Helper()
		got, err := run(t, factory, pts)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range pts {
			if want := RunAccuracy(rep, budget, pt.Config); got[i] != want {
				t.Errorf("member %d diverges from solo run\n  gang %+v\n  solo %+v", i, got[i], want)
			}
		}
	}
	refused := func(t *testing.T, factory trace.Factory, pts []GangPoint) {
		t.Helper()
		if _, err := run(t, factory, pts); err == nil {
			t.Error("the gang ran")
		}
	}

	t.Run("empty", func(t *testing.T) { refused(t, rep, nil) })
	t.Run("streaming-only-factory", func(t *testing.T) {
		// Each member runs alone on the streaming loop, which records
		// no mispredict bits.
		matchSolo(t, opaqueFactory{rep}, base)
		pts := append([]GangPoint(nil), base...)
		pts[1].Mispredicts = new(BranchBits)
		refused(t, opaqueFactory{rep}, pts)
	})
	t.Run("btb-baseline-member", func(t *testing.T) {
		// A BTB-only member leading the gang fuses, and every member,
		// it included, scores exactly as its solo run.
		matchSolo(t, rep, append([]GangPoint{{Config: DefaultConfig()}}, base...))
	})
	t.Run("front-end-mismatch", func(t *testing.T) {
		pts := append([]GangPoint(nil), base...)
		pts[1].Config.RASDepth = 8
		refused(t, rep, pts)
	})
	t.Run("btb-gang", func(t *testing.T) {
		// Members differing only in their BTB fuse, and each scores
		// exactly as its solo run.
		matchSolo(t, rep, btbGangPoints())
	})
	t.Run("btb-gang-direction-mismatch", func(t *testing.T) {
		pts := btbGangPoints()
		pts[1].Config.Dir.HistoryBits = 8
		refused(t, rep, pts)
	})
	t.Run("btb-gang-ras-mismatch", func(t *testing.T) {
		pts := btbGangPoints()
		pts[2].Config.RASDepth = 8
		refused(t, rep, pts)
	})
	t.Run("btb-gang-with-target-cache", func(t *testing.T) {
		refused(t, rep, append(btbGangPoints(), base[0]))
	})
}

// TestGangTelemetryMatchesSolo pins the per-member collectors of a fused
// gang: each ends up deep-equal — site stats, event ring and
// instruction-index clock — to the collector of a solo run of that
// member, with and without periodic flushes, while the other members
// collect too or not at all.
func TestGangTelemetryMatchesSolo(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx := context.Background()
	newCol := func() *telemetry.Collector { return telemetry.NewCollector(telemetry.Config{Events: 64}) }
	for _, flush := range []int64{0, 7_777} {
		pts := gangPoints()
		for i := range pts {
			// Every member but the last collects: a silent member must
			// not disturb the others' streams.
			if i < len(pts)-1 {
				pts[i].Config.Telemetry = newCol()
			}
		}
		opts := Options{Budget: budget, FlushInterval: flush}
		got := runGang(t, ctx, rep, opts, pts)
		for i, pt := range pts {
			cfg := pt.Config
			if cfg.Telemetry != nil {
				cfg.Telemetry = newCol()
			}
			want := runOne(t, ctx, rep, opts, cfg)
			if got[i] != want {
				t.Errorf("flush=%d member %d: result diverges from solo run\n  gang %+v\n  solo %+v", flush, i, got[i], want)
			}
			if !reflect.DeepEqual(pt.Config.Telemetry, cfg.Telemetry) {
				t.Errorf("flush=%d member %d: gang telemetry diverges from the solo run's", flush, i)
			}
		}
	}
}

// TestGangErrorContract pins the fused kernel's corrupt-store behaviour
// against solo runs: same partial counters per member, and the same
// ErrCorrupt surfaced only when the budget reaches the damaged group —
// for a gang with target caches and for a BTB gang, whose scan for taken
// PCs meets the damage first.
func TestGangErrorContract(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 20_000))
	damaged := damagedStore(t, rep)
	for gi, pts := range [][]GangPoint{gangPoints(), btbGangPoints()} {
		for _, budget := range []int64{1_000, rep.Len()} {
			got := runGang(t, context.Background(), damaged, Options{Budget: budget}, pts)
			for i, pt := range pts {
				want := RunAccuracy(damaged, budget, pt.Config)
				gotErr, wantErr := got[i].Err, want.Err
				got[i].Err, want.Err = nil, nil
				if got[i] != want {
					t.Errorf("gang %d budget %d member %d: counters diverge\n  gang %+v\n  solo %+v", gi, budget, i, got[i], want)
				}
				switch {
				case gotErr == nil && wantErr == nil:
				case gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error():
					t.Errorf("gang %d budget %d member %d: error mismatch: gang %v, solo %v", gi, budget, i, gotErr, wantErr)
				}
			}
		}
	}
}

// TestGangCancellation pins partial results under a cancelled context:
// every member stops short of the budget, at the same poll boundary a
// solo run stops at, in a gang with target caches and in a BTB gang.
func TestGangCancellation(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 100_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Budget: budget}
	for gi, pts := range [][]GangPoint{gangPoints(), btbGangPoints()} {
		got := runGang(t, ctx, rep, opts, pts)
		for i, pt := range pts {
			want := runOne(t, ctx, rep, opts, pt.Config)
			if got[i].Err != context.Canceled || want.Err != context.Canceled {
				t.Fatalf("gang %d member %d: expected context.Canceled, gang %v solo %v", gi, i, got[i].Err, want.Err)
			}
			if got[i].Instructions >= budget {
				t.Errorf("gang %d member %d: a cancelled run processed the full budget (%d)", gi, i, got[i].Instructions)
			}
			got[i].Err, want.Err = nil, nil
			if got[i] != want {
				t.Errorf("gang %d member %d: cancelled partial counters diverge\n  gang %+v\n  solo %+v", gi, i, got[i], want)
			}
		}
	}
}

// BenchmarkGangVsSolo measures the fused kernel's amortization: one pass
// updating 8 tagless configs against 8 separate solo passes, and one BTB
// gang of 36 BTB geometries and update strategies against 36 solo passes,
// each reported per member-instruction.
func BenchmarkGangVsSolo(b *testing.B) {
	const budget = 1_000_000
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	rep := w.Replay(budget)
	var pts []GangPoint
	for _, entries := range []int{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		e := entries
		pts = append(pts, GangPoint{
			Config: DefaultConfig().WithTargetCache(
				func() core.TargetCache {
					return core.NewTagless(core.TaglessConfig{Entries: e, Scheme: core.SchemeGshare})
				},
				func() history.Provider { return history.NewPatternProvider(9) }),
			HistShare: "pattern#9",
		})
	}
	ctx, opts := context.Background(), Options{Budget: budget}
	b.Run("gang-8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runGang(b, ctx, rep, opts, pts)
		}
		b.ReportMetric(float64(int64(len(pts))*budget*int64(b.N))/b.Elapsed().Seconds()/1e6, "Mpointinstr/s")
	})
	b.Run("solo-8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pt := range pts {
				RunAccuracy(rep, budget, pt.Config)
			}
		}
		b.ReportMetric(float64(int64(len(pts))*budget*int64(b.N))/b.Elapsed().Seconds()/1e6, "Mpointinstr/s")
	})

	var btbs []GangPoint
	for _, strat := range []btb.Strategy{btb.StrategyDefault, btb.StrategyTwoBit} {
		for _, entries := range []int{256, 512, 1024, 2048, 4096, 8192} {
			for _, ways := range []int{1, 2, 4} {
				cfg := DefaultConfig()
				cfg.BTB = btb.Config{Sets: entries / ways, Ways: ways, Strategy: strat}
				btbs = append(btbs, GangPoint{Config: cfg})
			}
		}
	}
	perMemberInstr := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(len(btbs))*budget*int64(b.N)), "ns/member-instr")
	}
	b.Run("btb-gang-36", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runGang(b, ctx, rep, opts, btbs)
		}
		perMemberInstr(b)
	})
	b.Run("btb-solo-36", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pt := range btbs {
				RunAccuracy(rep, budget, pt.Config)
			}
		}
		perMemberInstr(b)
	})
}

// variantPoints is one BTB-only member per RAS depth 1–64 and update
// strategy, on the paper's BTB geometry and direction predictor.
func variantPoints() []GangPoint {
	var pts []GangPoint
	for _, depth := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, strat := range []btb.Strategy{btb.StrategyDefault, btb.StrategyTwoBit} {
			cfg := DefaultConfig()
			cfg.RASDepth, cfg.BTB.Strategy = depth, strat
			pts = append(pts, GangPoint{Config: cfg})
		}
	}
	return pts
}

// TestVariantsMatchEngine pins front-end variants — BTB-only members that
// share a walk's BTB geometry and direction predictor but not its update
// strategy or RAS depth — against the streaming Engine loop: every member
// of a gang of them alone (walked at either end of the list: the default
// strategy at depth 1, or the 2-bit one at depth 64) and of one riding a
// target-cache gang reports that member's solo AccuracyResult and
// collector, with and without flushes, with no member collecting and with
// most of them collecting. Each gang must take the variant path, not a
// BTB gang's.
func TestVariantsMatchEngine(t *testing.T) {
	const budget = 100_000
	ctx := context.Background()
	newCol := func() *telemetry.Collector { return telemetry.NewCollector(telemetry.Config{Events: 64}) }
	for _, name := range []string{"xlisp", "perl"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rep := trace.Capture(trace.NewLimit(w.Open(), budget))
		shapes := map[string]func() ([]GangPoint, int){
			"alone": func() ([]GangPoint, int) { return variantPoints(), 1 },
			"alone-reversed": func() ([]GangPoint, int) {
				pts := variantPoints()
				slices.Reverse(pts)
				return pts, 1
			},
			"riding-target-caches": func() ([]GangPoint, int) {
				exact := gangPoints()
				return append(exact, variantPoints()...), len(exact)
			},
		}
		for shape, build := range shapes {
			for _, flush := range []int64{0, 7_777} {
				for _, collect := range []bool{false, true} {
					pts, exact := build()
					if g := newGang(ctx, span{bs: rep, end: budget}, pts); g.btb == nil || len(g.members) != exact {
						t.Fatalf("%s %s: %d exact members over a BTB gang %v; want %d over the walk's BTB", name, shape, len(g.members), g.btb == nil, exact)
					}
					for i := range pts {
						if collect && i%3 != 1 {
							pts[i].Config.Telemetry = newCol()
						}
					}
					got := runGang(t, ctx, rep, Options{Budget: budget, FlushInterval: flush}, pts)
					for i, pt := range pts {
						cfg := pt.Config
						if cfg.Telemetry != nil {
							cfg.Telemetry = newCol()
						}
						if want := engineRun(t, rep, budget, flush, cfg); got[i] != want {
							t.Errorf("%s %s, flush %d, collect %v, member %d: diverges from the engine\n  gang   %+v\n  engine %+v",
								name, shape, flush, collect, i, got[i], want)
						}
						if !reflect.DeepEqual(pt.Config.Telemetry, cfg.Telemetry) {
							t.Errorf("%s %s, flush %d, collect %v, member %d: telemetry diverges from the engine's", name, shape, flush, collect, i)
						}
					}
				}
			}
		}
	}
}
