package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// opaqueFactory hides a capture's concrete type from Run's dispatch,
// forcing the streaming reference loop over the same records the batched
// kernel consumes.
type opaqueFactory struct{ rep trace.Factory }

func (f opaqueFactory) Open() trace.Source { return f.rep.Open() }

// runGang is Run, failing t when Run refuses pts.
func runGang(t testing.TB, ctx context.Context, factory trace.Factory, opts Options, pts []GangPoint) []AccuracyResult {
	t.Helper()
	res, err := Run(ctx, factory, opts, pts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runOne is Run of the one member cfg.
func runOne(t testing.TB, ctx context.Context, factory trace.Factory, opts Options, cfg Config) AccuracyResult {
	t.Helper()
	return runGang(t, ctx, factory, opts, []GangPoint{{Config: cfg}})[0]
}

// damagedStore opens an uncompressed TCSTORE1 image of rep in one-block
// groups with 16 bytes overwritten three quarters of the way in: the
// blocks before the damaged group read cleanly, and BlockAt on it fails
// its checksum with an ErrCorrupt.
func damagedStore(t testing.TB, rep *trace.Replay) *trace.Store {
	t.Helper()
	var img bytes.Buffer
	if _, err := trace.WriteStore(&img, rep.Open(), trace.StoreOptions{GroupRecords: trace.BlockLen}); err != nil {
		t.Fatal(err)
	}
	b := img.Bytes()
	copy(b[len(b)*3/4:], bytes.Repeat([]byte{0xFF}, 16))
	s, err := trace.OpenStore(bytes.NewReader(b), int64(len(b)), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// kernelConfigs covers every dispatch arm of the batched kernel: the
// BTB-only baseline, each devirtualized (target cache, history) pairing,
// and a cache outside the switch that lands on the interface-typed
// fallback instantiation.
func kernelConfigs() map[string]Config {
	return map[string]Config{
		"baseline": DefaultConfig(),
		"tagless-pattern": DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
			},
			func() history.Provider { return history.NewPatternProvider(9) },
		),
		"tagged-path": DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagged(core.TaggedConfig{Entries: 512, Ways: 4, HistBits: 9})
			},
			func() history.Provider {
				return history.NewPath(history.PathConfig{Bits: 9, BitsPerTarget: 3, AddrBitOffset: 2})
			},
		),
		"cascaded": DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewCascaded(core.DefaultCascadedConfig()) },
			func() history.Provider { return history.NewPatternProvider(9) },
		),
		"ittage": DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewITTAGE(core.DefaultITTAGEConfig()) },
			func() history.Provider { return history.NewPatternProvider(9) },
		),
		"chooser": DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.DefaultChooser() },
			func() history.Provider { return history.NewPatternProvider(9) },
		),
		"fallback-lasttarget": DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewLastTarget(256, 2) },
			func() history.Provider { return history.NewPatternProvider(9) },
		),
	}
}

// TestKernelMatchesGenericLoop pins the batched devirtualized accuracy
// kernel against the streaming reference loop: identical AccuracyResult,
// field for field, for every dispatch arm, with and without periodic
// flushes, over the whole capture, a budget that ends inside one of its
// blocks, and its first block alone.
func TestKernelMatchesGenericLoop(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const size = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), size))
	ctx := context.Background()
	for name, cfg := range kernelConfigs() {
		for _, flush := range []int64{0, 7_777} {
			for _, budget := range []int64{size, 10*trace.BlockLen + trace.BlockLen/2, trace.BlockLen} {
				opts := Options{Budget: budget, FlushInterval: flush}
				got := runOne(t, ctx, rep, opts, cfg)
				want := runOne(t, ctx, opaqueFactory{rep}, opts, cfg)
				if got != want {
					t.Errorf("%s flush=%d budget=%d: kernel result diverges\n  kernel  %+v\n  generic %+v", name, flush, budget, got, want)
				}
			}
		}
	}
}

// TestKernelTelemetryMatchesGenericLoop pins the kernel's telemetry hook:
// a collector fed by the batched kernel ends up deep-equal — site stats,
// event ring and instruction-index clock — to one fed by the streaming
// loop, for every dispatch arm, with and without periodic flushes.
func TestKernelTelemetryMatchesGenericLoop(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx := context.Background()
	for name, cfg := range kernelConfigs() {
		for _, flush := range []int64{0, 7_777} {
			opts := Options{Budget: budget, FlushInterval: flush}
			cfg.Telemetry = telemetry.NewCollector(telemetry.Config{Events: 64})
			got := runOne(t, ctx, rep, opts, cfg)
			gotTel := cfg.Telemetry
			cfg.Telemetry = telemetry.NewCollector(telemetry.Config{Events: 64})
			want := runOne(t, ctx, opaqueFactory{rep}, opts, cfg)
			if got != want {
				t.Errorf("%s flush=%d: kernel result diverges\n  kernel  %+v\n  generic %+v", name, flush, got, want)
			}
			if !reflect.DeepEqual(gotTel, cfg.Telemetry) {
				t.Errorf("%s flush=%d: kernel telemetry diverges from the streaming loop's", name, flush)
			}
		}
	}
}

// BenchmarkRunAccuracy measures accuracy-simulation throughput over a
// memoized replay (the batched devirtualized kernel) for the BTB-only
// baseline and a target-cache configuration, with the streaming reference
// loop alongside for comparison.
func BenchmarkRunAccuracy(b *testing.B) {
	const budget = 1_000_000
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	rep := w.Replay(budget)
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"baseline", DefaultConfig()},
		{"tagless-pattern", kernelConfigs()["tagless-pattern"]},
	}
	for _, c := range cfgs {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunAccuracy(rep, budget, c.cfg)
			}
			b.ReportMetric(float64(budget*int64(b.N))/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
		b.Run(c.name+"-streaming", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunAccuracy(opaqueFactory{rep}, budget, c.cfg)
			}
			b.ReportMetric(float64(budget*int64(b.N))/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// TestKernelErrorContract pins the kernel's corrupt-store behaviour
// against the streaming loop: same partial counters, and the same
// ErrCorrupt surfaced only when the budget reaches the damaged group.
func TestKernelErrorContract(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 20_000))
	damaged := damagedStore(t, rep)
	cfg := kernelConfigs()["tagless-pattern"]
	for _, budget := range []int64{1_000, rep.Len()} {
		got := RunAccuracy(damaged, budget, cfg)
		want := RunAccuracy(opaqueFactory{damaged}, budget, cfg)
		gotErr, wantErr := got.Err, want.Err
		got.Err, want.Err = nil, nil
		if got != want {
			t.Errorf("budget %d: counters diverge\n  kernel  %+v\n  generic %+v", budget, got, want)
		}
		switch {
		case gotErr == nil && wantErr == nil:
		case gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error():
			t.Errorf("budget %d: error mismatch: kernel %v, generic %v", budget, gotErr, wantErr)
		}
	}
}
