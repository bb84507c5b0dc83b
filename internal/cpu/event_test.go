package cpu

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestModelsAgree cross-validates the fast one-pass timing model against
// the event-driven model: same instruction counts, cycle counts within a
// modest tolerance, and — what the experiments depend on — the same
// direction and similar magnitude for the target cache's benefit.
func TestModelsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four timing simulations")
	}
	const budget = 200_000
	tcCfg := sim.DefaultConfig().WithTargetCache(
		func() core.TargetCache {
			return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
		},
		func() history.Provider { return history.NewPatternProvider(9) },
	)
	for _, name := range []string{"perl", "gcc"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		reduction := func(run func(cfg sim.Config) Result) (float64, Result, Result) {
			base := run(sim.DefaultConfig())
			tc := run(tcCfg)
			return 1 - float64(tc.Cycles)/float64(base.Cycles), base, tc
		}

		fastRed, fastBase, _ := reduction(func(cfg sim.Config) Result {
			return New(DefaultConfig(), sim.NewEngine(cfg)).Run(w.Open(), budget)
		})
		evRed, evBase, _ := reduction(func(cfg sim.Config) Result {
			return NewEvent(DefaultConfig(), sim.NewEngine(cfg)).Run(w.Open(), budget)
		})

		if fastBase.Instructions != evBase.Instructions {
			t.Fatalf("%s: instruction counts differ: %d vs %d",
				name, fastBase.Instructions, evBase.Instructions)
		}
		if fastBase.Mispredicts != evBase.Mispredicts {
			t.Errorf("%s: mispredict counts differ: %d vs %d (same engine, same trace)",
				name, fastBase.Mispredicts, evBase.Mispredicts)
		}
		ratio := float64(fastBase.Cycles) / float64(evBase.Cycles)
		if ratio < 0.6 || ratio > 1.67 {
			t.Errorf("%s: cycle counts diverge: fast=%d event=%d (ratio %.2f)",
				name, fastBase.Cycles, evBase.Cycles, ratio)
		}
		if (fastRed > 0) != (evRed > 0) {
			t.Errorf("%s: models disagree on the target cache's benefit: %.2f%% vs %.2f%%",
				name, 100*fastRed, 100*evRed)
		}
		if diff := fastRed - evRed; diff > 0.12 || diff < -0.12 {
			t.Errorf("%s: reduction estimates far apart: fast %.2f%% event %.2f%%",
				name, 100*fastRed, 100*evRed)
		}
		t.Logf("%s: fast %d cycles (red %.2f%%), event %d cycles (red %.2f%%)",
			name, fastBase.Cycles, 100*fastRed, evBase.Cycles, 100*evRed)
	}
}

// TestEventModelBasics checks structural sanity of the event model alone.
func TestEventModelBasics(t *testing.T) {
	w, err := workload.ByName("xlisp")
	if err != nil {
		t.Fatal(err)
	}
	res := NewEvent(DefaultConfig(), sim.NewEngine(sim.DefaultConfig())).Run(w.Open(), 50_000)
	if res.Instructions != 50_000 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
	if res.Cycles <= res.Instructions/int64(DefaultConfig().Width) {
		t.Fatalf("cycles %d below the width bound", res.Cycles)
	}
	if ipc := res.IPC(); ipc <= 0 || ipc > 8 {
		t.Fatalf("IPC %.2f implausible", ipc)
	}
}

// randomMachine draws a machine from the space the event oracle covers:
// width 1-16, window 1-256, front-end depth 0-14, latencies 0-6 (zero
// included), memory latency 0-40 and a small data cache, whose set count
// need not be a power of two.
func randomMachine(rng *rand.Rand) Config {
	mc := DefaultConfig()
	mc.Width = 1 + rng.IntN(16)
	mc.Window = 1 + rng.IntN(256)
	mc.FrontEndDepth = rng.IntN(15)
	for op := range mc.Latencies {
		mc.Latencies[op] = int64(rng.IntN(7))
	}
	mc.MemLatency = int64(rng.IntN(41))
	mc.DCacheLine = 8 << rng.IntN(4)
	mc.DCacheWays = 1 << rng.IntN(3)
	mc.DCacheBytes = mc.DCacheLine * mc.DCacheWays * (1 + rng.IntN(16))
	return mc
}

// eventRun is one event-model run the oracle compares: its Result and
// what its collector reports.
type eventRun struct {
	res Result
	tel []telemetry.CellReport
}

// sameRun reports how got differs from the reference run want, or "".
// Errors compare by message.
func sameRun(got, want eventRun) string {
	gErr, wErr := got.res.Err, want.res.Err
	got.res.Err, want.res.Err = nil, nil
	switch {
	case got.res != want.res:
		return fmt.Sprintf("result %+v, reference %+v", got.res, want.res)
	case (gErr == nil) != (wErr == nil) || gErr != nil && gErr.Error() != wErr.Error():
		return fmt.Sprintf("error %v, reference %v", gErr, wErr)
	case !reflect.DeepEqual(got.tel, want.tel):
		return "the collectors report differently"
	}
	return ""
}

// eventRuns runs budget instructions of w on mc with predictor cfg, with a
// collector of its own per run: the reference loop and RunCtx over the
// live VM, and, for a clean machine, RunEvent over capture from a
// reference predictor pass's bits and from a gang member's.
func eventRuns(ctx context.Context, w *workload.Workload, capture *trace.Replay, mc Config, cfg sim.Config, budget int64) (ref eventRun, got map[string]eventRun) {
	collect := func() sim.Config {
		c := cfg
		c.Telemetry = telemetry.NewCollector(telemetry.Config{Events: 4})
		return c
	}
	c := collect()
	ref = eventRun{newRefEvent(mc, sim.NewEngine(c)).RunCtx(ctx, w.Open(), budget), report(c.Telemetry)}
	c = collect()
	got = map[string]eventRun{"live": {NewEvent(mc, sim.NewEngine(c)).RunCtx(ctx, w.Open(), budget), report(c.Telemetry)}}
	if mc.ModelWrongPath {
		return ref, got
	}
	columnar := func(pass Pass) eventRun {
		misses, err := DCacheMisses(context.Background(), mc, capture, pass.Instructions)
		if err != nil {
			return eventRun{res: Result{Err: err}}
		}
		return eventRun{RunEvent(ctx, mc, capture, misses, pass), report(pass.Tel)}
	}
	c = collect()
	got["columnar"] = columnar(predict(context.Background(), sim.NewEngine(c), capture, budget))
	c = collect()
	pass := Pass{Tel: c.Telemetry}
	accs, err := sim.Run(context.Background(), capture, sim.Options{Budget: budget},
		[]sim.GangPoint{{Config: c, Mispredicts: &pass.Mispredicts}})
	if err != nil {
		got["gang"] = eventRun{res: Result{Err: err}}
		return ref, got
	}
	pass.Instructions, pass.Err = accs[0].Instructions, accs[0].Err
	got["gang"] = columnar(pass)
	return ref, got
}

// TestEventMatchesReference holds both front ends of the event loop to
// the loop as it stood before the issue scan ended at the front-end
// boundary (eventref_test.go): RunCtx over a live VM, with and without
// wrong-path fetch, and RunEvent over a capture, fed by a reference
// predictor pass or by a gang member, must return the reference's Result
// field for field and a collector that reports the same sites and the
// same fetch-stamped events, on random machines over several workloads;
// and so must a run whose context is cancelled and one that trips the
// deadlock guard.
func TestEventMatchesReference(t *testing.T) {
	machines, budget := 300, int64(4_000)
	if testing.Short() {
		machines = 60
	}
	tcCfg := sim.DefaultConfig().WithTargetCache(
		func() core.TargetCache {
			return core.NewTagless(core.TaglessConfig{Entries: 64, Scheme: core.SchemeGshare})
		},
		func() history.Provider { return history.NewPatternProvider(6) },
	)
	names := []string{"perl", "gcc", "go", "xlisp", "cxx"}
	ws := make([]*workload.Workload, len(names))
	captures := make([]*trace.Replay, len(names))
	for i, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws[i], captures[i] = w, trace.Capture(trace.NewLimit(w.Open(), 4*budget))
	}
	// partial: the runs stop early, so the capture paths' predictor
	// passes have logged branches the reference never fetched.
	check := func(name string, ref eventRun, got map[string]eventRun, partial bool) {
		t.Helper()
		for path, run := range got {
			want := ref
			if partial && path != "live" {
				run.tel, want.tel = nil, nil
			}
			if d := sameRun(run, want); d != "" {
				t.Errorf("%s/%s: %s", name, path, d)
			}
		}
	}
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(23, 1997))
	for i := range machines {
		mc := randomMachine(rng)
		mc.ModelWrongPath = i%2 == 1
		cfg := sim.DefaultConfig()
		if i%4 >= 2 {
			cfg = tcCfg
		}
		wi := rng.IntN(len(ws))
		n := budget/2 + rng.Int64N(budget)
		ref, got := eventRuns(ctx, ws[wi], captures[wi], mc, cfg, n)
		check(fmt.Sprintf("machine %d (%s, %+v)", i, names[wi], mc), ref, got, false)
	}

	// A cancelled context stops the loop at its first poll (a one-wide
	// machine takes more cycles than that), a tight deadlock guard at the
	// first long miss; both keep partial counts.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	narrow := DefaultConfig()
	narrow.Width = 1
	stalls := DefaultConfig()
	stalls.DeadlockCycles, stalls.MemLatency, stalls.DCacheBytes = 8, 40, 1024
	for _, tc := range []struct {
		name string
		ctx  context.Context
		mc   Config
	}{
		{"cancelled", cancelled, narrow},
		{"deadlock", ctx, stalls},
	} {
		for _, wrongPath := range []bool{false, true} {
			mc := tc.mc
			mc.ModelWrongPath = wrongPath
			ref, got := eventRuns(tc.ctx, ws[0], captures[0], mc, tcCfg, 4*budget)
			if ref.res.Err == nil {
				t.Fatalf("%s: the reference run did not stop early", tc.name)
			}
			check(fmt.Sprintf("%s/wrong-path %v", tc.name, wrongPath), ref, got, true)
		}
	}
}

// BenchmarkEvent prices the event model per instruction on gcc's capture
// with the 512-entry tagless gshare cache: the live front end (RunCtx
// over a cursor, asking the engine and the data cache as it fetches) and
// the columnar one (RunEvent from a predictor pass's bits and the miss
// bits, both computed outside the timer).
func BenchmarkEvent(b *testing.B) {
	const budget = 300_000
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	rep := w.Replay(budget)
	ctx := context.Background()
	cfg := sim.DefaultConfig().WithTargetCache(
		func() core.TargetCache {
			return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
		},
		func() history.Provider { return history.NewPatternProvider(9) })
	mc := DefaultConfig()
	perInstr := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*budget), "ns/instr")
	}
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newRefEvent(mc, sim.NewEngine(cfg)).RunCtx(ctx, rep.Open(), budget)
		}
		perInstr(b)
	})
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewEvent(mc, sim.NewEngine(cfg)).RunCtx(ctx, rep.Open(), budget)
		}
		perInstr(b)
	})
	b.Run("columnar", func(b *testing.B) {
		pass := predict(ctx, sim.NewEngine(cfg), rep, budget)
		misses, err := DCacheMisses(ctx, mc, rep, budget)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RunEvent(ctx, mc, rep, misses, pass)
		}
		perInstr(b)
	})
}
