package sim

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/workload"
)

func TestFlushesDegradePrediction(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 300_000
	cfg := DefaultConfig().WithTargetCache(
		func() core.TargetCache {
			return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
		},
		func() history.Provider { return history.NewPatternProvider(9) },
	)
	ctx := context.Background()
	flushed := func(interval int64) AccuracyResult {
		return runOne(t, ctx, w, Options{Budget: budget, FlushInterval: interval}, cfg)
	}
	never := flushed(0)
	plain := RunAccuracy(w, budget, cfg)
	if never.Indirect != plain.Indirect {
		t.Fatalf("interval 0 must match plain run: %+v vs %+v",
			never.Indirect, plain.Indirect)
	}
	often := flushed(2_000)
	if often.IndirectMispredictRate() <= never.IndirectMispredictRate() {
		t.Errorf("frequent flushes should hurt: %.2f%% vs %.2f%%",
			100*often.IndirectMispredictRate(), 100*never.IndirectMispredictRate())
	}
	// Monotonic-ish: flushing every 2k should be no better than every 50k.
	mid := flushed(50_000)
	if often.IndirectMispredictRate() < mid.IndirectMispredictRate() {
		t.Errorf("more flushing should not help: 2k %.2f%% vs 50k %.2f%%",
			100*often.IndirectMispredictRate(), 100*mid.IndirectMispredictRate())
	}
}
