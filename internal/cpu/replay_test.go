package cpu

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunReplayMatchesCursor pins the batched timing kernel (RunReplayCtx:
// batched iteration, hand-rolled data cache, devirtualized BTB probe)
// against the streaming reference loop (RunCtx over a Cursor): identical
// Result, field for field, across machine shapes that exercise both the
// power-of-two and the modulo window paths and both predictor layouts.
func TestRunReplayMatchesCursor(t *testing.T) {
	w, err := workload.ByName("go")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))

	machines := map[string]Config{
		"default": DefaultConfig(),
		"non-pow2-window": func() Config {
			c := DefaultConfig()
			c.Window = 48 // not a power of two: forces the modulo slot path
			return c
		}(),
		"tiny-dcache": func() Config {
			c := DefaultConfig()
			c.DCacheBytes = 4096 // high miss rate stresses the eviction path
			return c
		}(),
	}
	engines := map[string]sim.Config{
		"baseline": sim.DefaultConfig(),
		"tagless": sim.DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
			},
			func() history.Provider { return history.NewPatternProvider(9) },
		),
	}
	ctx := context.Background()
	for mn, mc := range machines {
		for en, ec := range engines {
			got := New(mc, sim.NewEngine(ec)).RunReplayCtx(ctx, rep, budget)
			want := New(mc, sim.NewEngine(ec)).RunCtx(ctx, rep.Open(), budget)
			if got != want {
				t.Errorf("%s/%s: replay kernel diverges\n  kernel %+v\n  cursor %+v", mn, en, got, want)
			}
		}
	}
}

// TestRunReplayErrorContract pins the kernel's behaviour over a damaged
// capture: same partial counters as the streaming loop and the same
// ErrCorrupt, surfaced only when the budget reaches the damaged group.
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
	ctx := context.Background()
	for _, budget := range []int64{1_000, rep.Len()} {
		got := New(DefaultConfig(), sim.NewEngine(sim.DefaultConfig())).RunReplayCtx(ctx, damaged, budget)
		want := New(DefaultConfig(), sim.NewEngine(sim.DefaultConfig())).RunCtx(ctx, damaged.Open(), budget)
		gotErr, wantErr := got.Err, want.Err
		got.Err, want.Err = nil, nil
		if got != want {
			t.Errorf("budget %d: counters diverge\n  kernel %+v\n  cursor %+v", budget, got, want)
		}
		switch {
		case gotErr == nil && wantErr == nil:
		case gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error():
			t.Errorf("budget %d: error mismatch: kernel %v, cursor %v", budget, gotErr, wantErr)
		}
	}
}
