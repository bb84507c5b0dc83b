package sim

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRunAccuracyWindows(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 400_000
	cfg := DefaultConfig().WithTargetCache(
		func() core.TargetCache {
			return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
		},
		func() history.Provider { return history.NewPatternProvider(9) },
	)
	res := RunAccuracyWindows(w, budget, 8, cfg)
	if len(res.Windows) != 8 {
		t.Fatalf("got %d windows, want 8", len(res.Windows))
	}
	whole := RunAccuracy(w, budget, cfg)
	if res.Overall.Indirect != whole.Indirect {
		t.Fatalf("windowed accounting diverges from plain run: %+v vs %+v",
			res.Overall.Indirect, whole.Indirect)
	}
	// The steady-state rate must be stable: the last windows should sit
	// within a few points of each other.
	last := res.Windows[len(res.Windows)-1]
	prev := res.Windows[len(res.Windows)-2]
	if d := last - prev; d > 0.08 || d < -0.08 {
		t.Errorf("steady-state windows differ by %.3f: %v", d, res.Windows)
	}
	// Warm-up: the first window (cold predictor) is the worst or near it.
	if res.Windows[0] < res.Mean() {
		t.Errorf("first (cold) window %.3f below the mean %.3f: %v",
			res.Windows[0], res.Mean(), res.Windows)
	}
	if res.StdDev() < 0 {
		t.Error("negative standard deviation")
	}
	t.Logf("windows=%v mean=%.4f stddev=%.4f warmup=%d",
		res.Windows, res.Mean(), res.StdDev(), res.WarmupWindows(0.01))
}

// TestRunAccuracyWindowsEdgeCases pins two contracts: a budget smaller
// than the window count gives one-instruction windows instead of an
// integer divide by zero, and a corrupt source surfaces in Overall.Err
// exactly as RunAccuracy reports it.
func TestRunAccuracyWindowsEdgeCases(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	tiny := RunAccuracyWindows(w, 5, 8, DefaultConfig())
	if len(tiny.Windows) != 5 || tiny.Overall.Instructions != 5 || tiny.Overall.Err != nil {
		t.Errorf("budget 5 over 8 windows: got %d windows, %d instructions, err %v; want 5, 5, nil",
			len(tiny.Windows), tiny.Overall.Instructions, tiny.Overall.Err)
	}

	rep := trace.Capture(trace.NewLimit(w.Open(), 20_000))
	damaged := damagedStore(t, rep)
	want := RunAccuracy(damaged, rep.Len(), DefaultConfig())
	if !errors.Is(want.Err, trace.ErrCorrupt) {
		t.Fatalf("RunAccuracy over a damaged capture: err=%v", want.Err)
	}
	got := RunAccuracyWindows(damaged, rep.Len(), 8, DefaultConfig())
	if got.Overall.Err == nil || got.Overall.Err.Error() != want.Err.Error() {
		t.Errorf("windowed run over a damaged capture: err=%v, want %v", got.Overall.Err, want.Err)
	}
	if got.Overall.Instructions != want.Instructions || got.Overall.Indirect != want.Indirect {
		t.Errorf("windowed run stopped elsewhere: %d instructions, indirect %+v; want %d, %+v",
			got.Overall.Instructions, got.Overall.Indirect, want.Instructions, want.Indirect)
	}
}

func TestWindowedResultStatsEdgeCases(t *testing.T) {
	var empty WindowedResult
	if empty.Mean() != 0 || empty.StdDev() != 0 || empty.WarmupWindows(0.1) != 0 {
		t.Fatal("empty result statistics should be zero")
	}
	one := WindowedResult{Windows: []float64{0.5}}
	if one.Mean() != 0.5 || one.StdDev() != 0 {
		t.Fatal("single-window statistics wrong")
	}
	warm := WindowedResult{Windows: []float64{0.9, 0.6, 0.3, 0.3}}
	if got := warm.WarmupWindows(0.1); got != 2 {
		t.Fatalf("warmup = %d, want 2", got)
	}
}
