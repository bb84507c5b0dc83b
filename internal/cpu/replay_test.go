package cpu

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// timingGroup is a pipeline group as large as the experiment suite's:
// mixedGang, then Table 7's 21 tagged caches (256 entries, 1-64 ways,
// every indexing scheme, pattern history), several of which mispredict
// exactly alike. It returns the members' names in gang order and their
// configurations.
func timingGroup() ([]string, map[string]sim.Config) {
	order, cfgs := append([]string(nil), gangOrder...), mixedGang()
	for _, ways := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, scheme := range []core.TaggedScheme{core.SchemeAddress, core.SchemeHistoryConcat, core.SchemeHistoryXor} {
			n := fmt.Sprintf("tagged-%dway-scheme%d", ways, scheme)
			order = append(order, n)
			cfgs[n] = sim.DefaultConfig().WithTargetCache(func() core.TargetCache {
				return core.NewTagged(core.TaggedConfig{Entries: 256, Ways: ways, Scheme: scheme, HistBits: 9})
			}, func() history.Provider { return history.NewPatternProvider(9) })
		}
	}
	return order, cfgs
}

// errStopped is the early stop of the fused path's stopped member.
var errStopped = errors.New("predictor pass stopped early")

// cutMembers are the two extra passes fused adds to the group, each
// reading the bits of the member it names, over records
// [0, records(budget)): one cut short, one that also reports a stop.
var cutMembers = []struct {
	name, of string
	records  func(budget int64) int64
	err      error
}{
	{"short", "tagless-pattern", func(b int64) int64 { return b*2/3 + 17 }, nil},
	{"stopped", "tagged-path", func(b int64) int64 { return b/2 + 5 }, errStopped},
}

// fused times every member of timingGroup on mc the way the experiment
// suite does: one gang pass records each member's mispredict bits, then
// one pipeline call reads them and the capture's miss bits, for the
// members and for cutMembers. cols holds the members' collectors (a
// missing entry collects nothing).
func fused(t *testing.T, bs trace.BlockSource, budget int64, cols map[string]*telemetry.Collector, mc Config) map[string]Result {
	t.Helper()
	ctx := context.Background()
	order, cfgs := timingGroup()
	pts := make([]sim.GangPoint, len(order))
	passes := make([]Pass, len(order), len(order)+len(cutMembers))
	at := make(map[string]int, len(order))
	for i, n := range order {
		pts[i] = sim.GangPoint{Config: cfgs[n], Mispredicts: &passes[i].Mispredicts}
		pts[i].Config.Telemetry = cols[n]
		at[n] = i
	}
	accs, err := sim.Run(ctx, bs, sim.Options{Budget: budget}, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, acc := range accs {
		passes[i].Instructions, passes[i].Err, passes[i].Tel = acc.Instructions, acc.Err, cols[order[i]]
	}
	for _, c := range cutMembers {
		of := passes[at[c.of]]
		passes = append(passes, Pass{Instructions: min(of.Instructions, c.records(budget)), Err: c.err, Mispredicts: of.Mispredicts})
	}
	misses, err := DCacheMisses(ctx, mc, bs, budget)
	res := RunPipeline(ctx, mc, bs, misses, passes)
	out := make(map[string]Result, len(passes))
	for i, n := range order {
		acc, r := accs[i], res[i]
		if err != nil && acc.Err == nil {
			t.Fatalf("%s: miss bits: %v", n, err)
		}
		// The pipeline counts what the predictor pass counted.
		if r.Branches != acc.Branches || r.Mispredicts != acc.Overall.Mispredicts ||
			r.IndirectCount != acc.Indirect.Predictions || r.IndirectMispredicts != acc.Indirect.Mispredicts ||
			r.CondMispredicts != acc.Conditional.Mispredicts || r.ReturnMispredicts != acc.Returns.Mispredicts {
			t.Errorf("%s: pipeline counters %+v disagree with the gang's %+v", n, r, acc)
		}
		out[n] = r
	}
	for i, c := range cutMembers {
		out[c.name] = res[len(order)+i]
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
// member's bits, then one pipeline call times them all). Every member of
// a 25-member group — BTB-only, tagless pattern, tagged path, ITTAGE and
// Table 7's tagged caches, so lanes fork and merge — gets an identical
// Result, field for field, on every machine shape, as do a pass cut short
// and a pass that stopped early with an error; and a collecting member's
// restamped collector reports exactly what the streaming run's does.
func TestRunReplayMatchesCursor(t *testing.T) {
	const budget = 60_000
	order, cfgs := timingGroup()
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
			}
			for _, n := range order {
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
			for _, c := range cutMembers {
				want := New(mc, sim.NewEngine(cfgs[c.of])).RunCtx(ctx, rep.Open(), c.records(budget))
				want.Err = c.err
				if got[c.name] != want {
					t.Errorf("%s/%s/%s: fused timing diverges\n  fused  %+v\n  cursor %+v", wn, mn, c.name, got[c.name], want)
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
