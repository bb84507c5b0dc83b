package cpu

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// oracleMachines are the machine shapes the capture paths are pinned on:
// the paper's machine, a window that is not a power of two (the modulo
// slot path), a tiny data cache (the eviction path), and the sensitivity
// ablation's other four shapes.
func oracleMachines() map[string]Config {
	shape := func(width, window, depth int) Config {
		c := DefaultConfig()
		c.Width, c.Window, c.FrontEndDepth = width, window, depth
		return c
	}
	tiny := DefaultConfig()
	tiny.DCacheBytes = 4096
	return map[string]Config{
		"default":         DefaultConfig(),
		"non-pow2-window": shape(8, 48, 5),
		"tiny-dcache":     tiny,
		"2-wide":          shape(2, 32, 3),
		"4-wide":          shape(4, 64, 4),
		"16-wide":         shape(16, 256, 8),
		"16-wide-deep":    shape(16, 256, 14),
	}
}

// gangOrder names mixedGang's members in gang order.
var gangOrder = []string{"btb-only", "tagless-pattern", "tagged-path", "ittage"}

// mixedGang is a gang over the paper's front end mixing the BTB-only
// baseline, a tagless pattern-history cache, a tagged path-history cache
// and ITTAGE.
func mixedGang() map[string]sim.Config {
	pathHist := func() history.Provider {
		return history.NewPath(history.PathConfig{Bits: 9, BitsPerTarget: 1, AddrBitOffset: 2, Filter: history.FilterControl})
	}
	return map[string]sim.Config{
		"btb-only": sim.DefaultConfig(),
		"tagless-pattern": sim.DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
			},
			func() history.Provider { return history.NewPatternProvider(9) }),
		"tagged-path": sim.DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagged(core.TaggedConfig{Entries: 256, Ways: 4, Scheme: core.SchemeHistoryXor, HistBits: 9})
			}, pathHist),
		"ittage": sim.DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewITTAGE(core.DefaultITTAGEConfig()) }, pathHist),
	}
}

// fused times every member of mixedGang on mc the way the experiment
// suite does: one gang pass records each member's mispredict bits, then
// one pipeline pass per member reads them and the capture's miss bits.
// cols holds the members' collectors (a missing entry collects nothing).
func fused(t *testing.T, bs trace.BlockSource, budget int64, cols map[string]*telemetry.Collector, mc Config) map[string]Result {
	t.Helper()
	ctx, cfgs := context.Background(), mixedGang()
	pts := make([]sim.GangPoint, len(gangOrder))
	bits := make([]sim.BranchBits, len(gangOrder))
	for i, n := range gangOrder {
		pts[i] = sim.GangPoint{Config: cfgs[n], Mispredicts: &bits[i]}
		pts[i].Config.Telemetry = cols[n]
	}
	accs, err := sim.Run(ctx, bs, sim.Options{Budget: budget}, pts)
	if err != nil {
		t.Fatal(err)
	}
	misses, err := DCacheMisses(ctx, mc, bs, budget)
	out := make(map[string]Result, len(gangOrder))
	for i, n := range gangOrder {
		acc := accs[i]
		if err != nil && acc.Err == nil {
			t.Fatalf("%s: miss bits: %v", n, err)
		}
		res := RunPipeline(ctx, mc, bs, misses, Pass{Instructions: acc.Instructions, Err: acc.Err, Mispredicts: bits[i], Tel: cols[n]})
		// The pipeline counts what the predictor pass counted.
		if res.Branches != acc.Branches || res.Mispredicts != acc.Overall.Mispredicts ||
			res.IndirectCount != acc.Indirect.Predictions || res.IndirectMispredicts != acc.Indirect.Mispredicts ||
			res.CondMispredicts != acc.Conditional.Mispredicts || res.ReturnMispredicts != acc.Returns.Mispredicts {
			t.Errorf("%s: pipeline counters %+v disagree with the gang's %+v", n, res, acc)
		}
		out[n] = res
	}
	return out
}

// report is everything a collector exposes — per-site statistics, the
// retained events with their clocks, the dropped count — as one value.
func report(col *telemetry.Collector) []telemetry.CellReport {
	rec := telemetry.NewRecorder(telemetry.Config{Events: 4})
	rec.Merge(telemetry.Key{Config: "run"}, col)
	return rec.Report(telemetry.RunInfo{}).Cells
}

// TestRunReplayMatchesCursor pins both capture paths against the
// streaming reference loop (RunCtx over a Cursor, asking sim.Engine as it
// goes): RunReplayCtx (the machine's engine fills the mispredict bits)
// and the fused path the experiment suite runs (one gang pass fills every
// member's bits, then a pipeline pass per member). Every member of a
// mixed gang — BTB-only, tagless pattern, tagged path, ITTAGE — gets an
// identical Result, field for field, on every machine shape, and a
// collecting member's restamped collector reports exactly what the
// streaming run's does.
func TestRunReplayMatchesCursor(t *testing.T) {
	const budget = 60_000
	cfgs := mixedGang()
	tcfg := telemetry.Config{Events: 4}
	ctx := context.Background()
	for _, wn := range []string{"go", "perl"} {
		w, err := workload.ByName(wn)
		if err != nil {
			t.Fatal(err)
		}
		rep := trace.Capture(trace.NewLimit(w.Open(), budget))
		for mn, mc := range oracleMachines() {
			cols := map[string]*telemetry.Collector{"tagged-path": telemetry.NewCollector(tcfg)}
			got := fused(t, rep, budget, cols, mc)
			for _, n := range gangOrder {
				if replay, want := New(mc, sim.NewEngine(cfgs[n])).RunReplayCtx(ctx, rep, budget),
					New(mc, sim.NewEngine(cfgs[n])).RunCtx(ctx, rep.Open(), budget); replay != want {
					t.Errorf("%s/%s/%s: RunReplayCtx diverges\n  replay %+v\n  cursor %+v", wn, mn, n, replay, want)
				}
				cfg := cfgs[n]
				if cols[n] != nil {
					cfg.Telemetry = telemetry.NewCollector(tcfg)
				}
				want := New(mc, sim.NewEngine(cfg)).RunCtx(ctx, rep.Open(), budget)
				if got[n] != want {
					t.Errorf("%s/%s/%s: fused timing diverges\n  fused  %+v\n  cursor %+v", wn, mn, n, got[n], want)
				}
				if cols[n] == nil {
					continue
				}
				if evs, _ := cfg.Telemetry.Events(); len(evs) == 0 {
					t.Fatalf("%s/%s/%s: the streaming run logged no events to compare", wn, mn, n)
				}
				if g, w := report(cols[n]), report(cfg.Telemetry); !reflect.DeepEqual(g, w) {
					t.Errorf("%s/%s/%s: restamped collector differs from the streaming run's\n  fused  %+v\n  cursor %+v", wn, mn, n, g, w)
				}
			}
		}
	}
}

// TestRunReplayErrorContract pins both capture paths over a damaged
// store: every member reports the streaming loop's partial counters and
// its ErrCorrupt, surfaced only when the budget reaches the damaged group.
func TestRunReplayErrorContract(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 20_000))
	// An uncompressed image in one-block groups with 16 bytes overwritten
	// three quarters of the way in: that group fails its checksum.
	var img bytes.Buffer
	if _, err := trace.WriteStore(&img, rep.Open(), trace.StoreOptions{GroupRecords: trace.BlockLen}); err != nil {
		t.Fatal(err)
	}
	b := img.Bytes()
	copy(b[len(b)*3/4:], bytes.Repeat([]byte{0xFF}, 16))
	damaged, err := trace.OpenStore(bytes.NewReader(b), int64(len(b)), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cfgs := context.Background(), mixedGang()
	for _, budget := range []int64{1_000, rep.Len()} {
		fusedRes := fused(t, damaged, budget, nil, DefaultConfig())
		for _, n := range gangOrder {
			want := New(DefaultConfig(), sim.NewEngine(cfgs[n])).RunCtx(ctx, damaged.Open(), budget)
			for path, got := range map[string]Result{
				"replay": New(DefaultConfig(), sim.NewEngine(cfgs[n])).RunReplayCtx(ctx, damaged, budget),
				"fused":  fusedRes[n],
			} {
				want := want
				gotErr, wantErr := got.Err, want.Err
				got.Err, want.Err = nil, nil
				if got != want {
					t.Errorf("budget %d/%s/%s: counters diverge\n  %s %+v\n  cursor %+v", budget, n, path, path, got, want)
				}
				switch {
				case gotErr == nil && wantErr == nil:
					if budget == rep.Len() {
						t.Errorf("budget %d/%s/%s: the damaged group went unreported", budget, n, path)
					}
				case gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, trace.ErrCorrupt):
					t.Errorf("budget %d/%s/%s: error mismatch: %v, cursor %v", budget, n, path, gotErr, wantErr)
				}
			}
		}
	}
}
