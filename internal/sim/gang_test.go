package sim

import (
	"context"
	"reflect"
	"testing"

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
			hi := lo + width
			if hi > len(pts) {
				hi = len(pts)
			}
			got, ok := RunAccuracyGang(rep, budget, pts[lo:hi])
			if !ok {
				t.Fatalf("width %d members [%d,%d): gang refused to fuse", width, lo, hi)
			}
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
// them: for every member, whatever the flush interval and segment count,
// exactly the branches a streaming Engine run of that member alone
// mispredicts. Members that do not ask get none, and asking changes no
// member's AccuracyResult.
func TestGangMispredictBits(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	for _, flush := range []int64{0, 7_000} {
		plain := gangPoints()
		want, _ := RunAccuracyGangSegmentedCtx(context.Background(), rep, budget, flush, 1, plain)
		for _, segments := range []int{1, 4} {
			pts := gangPoints()
			bits := make([]BranchBits, len(pts))
			for i := range pts {
				if i != 2 { // one member asks for nothing
					pts[i].Mispredicts = &bits[i]
				}
			}
			before := SegmentCounters().SegmentedRuns
			got, ok := RunAccuracyGangSegmentedCtx(context.Background(), rep, budget, flush, segments, pts)
			if !ok {
				t.Fatal("gang refused to fuse")
			}
			if split := SegmentCounters().SegmentedRuns > before; split != (segments > 1) {
				t.Fatalf("%d segments: segmented %v", segments, split)
			}
			for i := range pts {
				if got[i] != want[i] {
					t.Errorf("flush %d, %d segments, member %d: asking for bits changed the result\n  got  %+v\n  want %+v", flush, segments, i, got[i], want[i])
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
					t.Errorf("flush %d, %d segments, member %d: %d of %d branch bits differ from the engine's; %d set, %d mispredicts, %d words",
						flush, segments, i, diff, got[i].Branches, n, got[i].Overall.Mispredicts, len(bits[i]))
				}
			}
		}
	}
}

// TestGangSharedHistoryMatchesPrivate verifies that history sharing is
// invisible in the results: the same gang with all share keys cleared
// (every member gets a private provider) reports identical results.
func TestGangSharedHistoryMatchesPrivate(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 40_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	shared := gangPoints()
	private := gangPoints()
	for i := range private {
		private[i].HistShare = ""
	}
	got, ok := RunAccuracyGang(rep, budget, shared)
	want, ok2 := RunAccuracyGang(rep, budget, private)
	if !ok || !ok2 {
		t.Fatal("gang refused to fuse")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("member %d: shared-history result diverges from private providers\n  shared  %+v\n  private %+v",
				i, got[i], want[i])
		}
	}
}

// TestGangFallbackConditions enumerates every condition under which the
// gang must refuse to fuse and hand the caller back to per-point runs,
// and pins that a member without a target cache is not one of them.
func TestGangFallbackConditions(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 10_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	base := gangPoints()

	t.Run("empty", func(t *testing.T) {
		if _, ok := RunAccuracyGang(rep, budget, nil); ok {
			t.Error("empty gang fused")
		}
	})
	t.Run("streaming-only-factory", func(t *testing.T) {
		if _, ok := RunAccuracyGang(opaqueFactory{rep}, budget, base); ok {
			t.Error("gang fused over a factory with no BlockSource")
		}
	})
	t.Run("btb-baseline-member", func(t *testing.T) {
		// A BTB-only member leading the gang fuses, and every member,
		// it included, scores exactly as its solo run.
		pts := append([]GangPoint{{Config: DefaultConfig()}}, base...)
		got, ok := RunAccuracyGang(rep, budget, pts)
		if !ok {
			t.Fatal("gang refused a member without a target cache")
		}
		for i, pt := range pts {
			if want := RunAccuracy(rep, budget, pt.Config); got[i] != want {
				t.Errorf("member %d diverges from solo run\n  gang %+v\n  solo %+v", i, got[i], want)
			}
		}
	})
	t.Run("front-end-mismatch", func(t *testing.T) {
		pts := append([]GangPoint(nil), base...)
		cfg := pts[1].Config
		cfg.RASDepth = 8
		pts[1].Config = cfg
		if _, ok := RunAccuracyGang(rep, budget, pts); ok {
			t.Error("gang fused members with different front ends")
		}
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
		got, ok := RunAccuracyGangSegmentedCtx(ctx, rep, budget, flush, 1, pts)
		if !ok {
			t.Fatalf("flush=%d: gang refused to fuse", flush)
		}
		for i, pt := range pts {
			cfg := pt.Config
			if cfg.Telemetry != nil {
				cfg.Telemetry = newCol()
			}
			want := RunAccuracyWithFlushesCtx(ctx, rep, budget, flush, cfg)
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
// ErrCorrupt surfaced only when the budget reaches the damaged group.
func TestGangErrorContract(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 20_000))
	damaged := damagedStore(t, rep)
	pts := gangPoints()
	for _, budget := range []int64{1_000, rep.Len()} {
		got, ok := RunAccuracyGang(damaged, budget, pts)
		if !ok {
			t.Fatalf("budget %d: gang refused to fuse", budget)
		}
		for i, pt := range pts {
			want := RunAccuracy(damaged, budget, pt.Config)
			gotErr, wantErr := got[i].Err, want.Err
			got[i].Err, want.Err = nil, nil
			if got[i] != want {
				t.Errorf("budget %d member %d: counters diverge\n  gang %+v\n  solo %+v", budget, i, got[i], want)
			}
			switch {
			case gotErr == nil && wantErr == nil:
			case gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error():
				t.Errorf("budget %d member %d: error mismatch: gang %v, solo %v", budget, i, gotErr, wantErr)
			}
		}
	}
}

// TestGangCancellation pins partial results under a cancelled context:
// every member stops at the same poll boundary a solo run stops at.
func TestGangCancellation(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 100_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := gangPoints()
	got, ok := RunAccuracyGangCtx(ctx, rep, budget, pts)
	if !ok {
		t.Fatal("gang refused to fuse")
	}
	for i, pt := range pts {
		want := RunAccuracyCtx(ctx, rep, budget, pt.Config)
		if got[i].Err != context.Canceled || want.Err != context.Canceled {
			t.Fatalf("member %d: expected context.Canceled, gang %v solo %v", i, got[i].Err, want.Err)
		}
		got[i].Err, want.Err = nil, nil
		if got[i] != want {
			t.Errorf("member %d: cancelled partial counters diverge\n  gang %+v\n  solo %+v", i, got[i], want)
		}
	}
}

// BenchmarkGangVsSolo measures the fused kernel's amortization: one pass
// updating 8 tagless configs against 8 separate solo passes.
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
	b.Run("gang-8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := RunAccuracyGang(rep, budget, pts); !ok {
				b.Fatal("gang refused to fuse")
			}
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
}
