package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cbt"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runCBT is RunCBTCtx under context.Background, failing t on an early
// stop.
func runCBT(t *testing.T, factory trace.Factory, budget int64, cfg cbt.Config) stats.Counter {
	t.Helper()
	c, err := RunCBTCtx(context.Background(), factory, budget, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cbtConfigs are the oracle CBT, which knows the dispatch value, and the
// stale one, which has only the last computed value.
func cbtConfigs() map[string]cbt.Config {
	oracle := cbt.DefaultConfig()
	oracle.Oracle = true
	return map[string]cbt.Config{"oracle": oracle, "stale": cbt.DefaultConfig()}
}

func TestRunCBTOracleVsStale(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 300_000
	cfgs := cbtConfigs()
	oracle := runCBT(t, w, budget, cfgs["oracle"])
	stale := runCBT(t, w, budget, cfgs["stale"])

	if oracle.Predictions == 0 || oracle.Predictions != stale.Predictions {
		t.Fatalf("prediction counts: oracle %d stale %d",
			oracle.Predictions, stale.Predictions)
	}
	// The oracle CBT knows the dispatch value: near-perfect. The stale CBT
	// has only the last computed value: on an interpreter it's as bad as a
	// BTB (the paper's Section 2 point).
	if oracle.MispredictRate() > 0.02 {
		t.Errorf("oracle CBT mispredict %.2f%%, want < 2%%", 100*oracle.MispredictRate())
	}
	if stale.MispredictRate() < 0.5 {
		t.Errorf("stale CBT mispredict %.2f%%, want > 50%% on perl", 100*stale.MispredictRate())
	}
}

func TestRunCBTCountsOnlyTargetCachePopulation(t *testing.T) {
	recs := []trace.Record{
		{PC: 0x10, Class: trace.ClassCondDirect, Taken: true, Target: 0x40},
		{PC: 0x20, Class: trace.ClassReturn, Taken: true, Target: 0x44},
		{PC: 0x30, Addr: 1, Class: trace.ClassIndJump, Taken: true, Target: 0x80},
	}
	factory := trace.FactoryFunc(func() trace.Source { return trace.NewSliceSource(recs) })
	c := runCBT(t, factory, int64(len(recs)), cbt.DefaultConfig())
	if c.Predictions != 1 {
		t.Fatalf("CBT counted %d predictions, want 1 (indirect jumps only)", c.Predictions)
	}
}

// TestCBTBlocksMatchStreaming pins the CBT's batched loop over a decoded
// capture, which every cbt experiment cell runs, to its streaming loop
// over the same records: equal counters for every workload, oracle and
// stale, and over a damaged store the same ErrCorrupt over equal partial
// counters.
func TestCBTBlocksMatchStreaming(t *testing.T) {
	const budget = 200_000
	ctx := context.Background()
	for _, w := range workload.All() {
		rep := trace.Capture(trace.NewLimit(w.Open(), budget))
		for name, cfg := range cbtConfigs() {
			got := runCBT(t, rep, budget, cfg)
			if want := runCBT(t, opaqueFactory{rep}, budget, cfg); got != want || got.Predictions == 0 {
				t.Errorf("%s %s: batched %+v, streaming %+v", w.Name, name, got, want)
			}
		}
	}

	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	damaged := damagedStore(t, trace.Capture(trace.NewLimit(w.Open(), 20*trace.BlockLen)))
	for name, cfg := range cbtConfigs() {
		got, gotErr := RunCBTCtx(ctx, damaged, budget, cfg)
		want, wantErr := RunCBTCtx(ctx, opaqueFactory{damaged}, budget, cfg)
		if !errors.Is(gotErr, trace.ErrCorrupt) || !errors.Is(wantErr, trace.ErrCorrupt) {
			t.Errorf("damaged store %s: batched err %v, streaming err %v; want ErrCorrupt from both", name, gotErr, wantErr)
		}
		if got != want || got.Predictions == 0 {
			t.Errorf("damaged store %s: partial counters diverge: batched %+v, streaming %+v", name, got, want)
		}
	}
}
