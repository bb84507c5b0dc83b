package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSegmentedMatchesStreaming is the tentpole equivalence pin: the
// segment-parallel driver must return a byte-identical AccuracyResult to
// the plain kernel for every dispatch arm, across segment counts (and
// with them, seam positions).
func TestSegmentedMatchesStreaming(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 30 * trace.BlockLen
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx := context.Background()
	for name, cfg := range kernelConfigs() {
		want := RunAccuracyCtx(ctx, rep, budget, cfg)
		for _, segments := range []int{1, 2, 3, 5, 8} {
			got := RunAccuracySegmentedCtx(ctx, rep, budget, segments, cfg)
			if got != want {
				t.Errorf("%s segments=%d: result diverges\n  segmented %+v\n  streaming %+v", name, segments, got, want)
			}
		}
		// A budget short of the capture, so the final seam is interior.
		partial := int64(budget - 3*trace.BlockLen/2)
		want = RunAccuracyCtx(ctx, rep, partial, cfg)
		if got := RunAccuracySegmentedCtx(ctx, rep, partial, 4, cfg); got != want {
			t.Errorf("%s partial budget: result diverges\n  segmented %+v\n  streaming %+v", name, got, want)
		}
	}

	// A multi-member gang: every segment worker primes and simulates the
	// whole gang. With flushes, priming resets at the same absolute
	// instruction indices the streaming run does.
	pts := gangPoints()
	for _, flush := range []int64{0, 7_777} {
		want := make([]AccuracyResult, len(pts))
		for i, pt := range pts {
			want[i] = RunAccuracyWithFlushesCtx(ctx, rep, budget, flush, pt.Config)
		}
		for _, segments := range []int{1, 2, 3, 5, 8} {
			got, ok := RunAccuracyGangSegmentedCtx(ctx, rep, budget, flush, segments, pts)
			if !ok {
				t.Fatalf("flush=%d segments=%d: gang refused to fuse", flush, segments)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("gang member %d flush=%d segments=%d: result diverges\n  segmented %+v\n  streaming %+v",
						i, flush, segments, got[i], want[i])
				}
			}
		}
	}
}

// TestSegmentedOverStore runs the same equivalence over the out-of-core
// trace store with a cache small enough to evict continuously, covering
// the segmented kernel's only other BlockSource.
func TestSegmentedOverStore(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20 * trace.BlockLen
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	var img bytes.Buffer
	if _, err := trace.WriteStore(&img, rep.Open(), trace.StoreOptions{Compress: true, GroupRecords: 2 * trace.BlockLen}); err != nil {
		t.Fatal(err)
	}
	store, err := trace.OpenStore(bytes.NewReader(img.Bytes()), int64(img.Len()), 3*trace.BlockLen*(3*8+4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := kernelConfigs()["tagged-path"]
	want := RunAccuracyCtx(ctx, rep, budget, cfg)
	if got := RunAccuracyCtx(ctx, store, budget, cfg); got != want {
		t.Fatalf("store plain run diverges\n  store  %+v\n  memory %+v", got, want)
	}
	if got := RunAccuracySegmentedCtx(ctx, store, budget, 4, cfg); got != want {
		t.Fatalf("store segmented run diverges\n  store  %+v\n  memory %+v", got, want)
	}
	if st := store.CacheStats(); st.Evictions == 0 {
		t.Fatalf("store cache never evicted (stats %+v); cache bound too loose for the test", st)
	}
}

// TestSegmentedCorruptTail pins the damaged-capture contract: the
// segmented run must surface the same ErrCorrupt as the streaming run
// when the budget reaches the damaged group, and stay silent when it
// stops short of it (the clean prefix).
func TestSegmentedCorruptTail(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20 * trace.BlockLen
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	damaged := damagedStore(t, rep)
	var clean int64
	for bi := 0; bi < damaged.NumBlocks(); bi++ {
		if _, err := damaged.BlockAt(bi); err != nil {
			break
		}
		clean += trace.BlockLen
	}
	if clean >= rep.Len() || clean < 8*trace.BlockLen {
		t.Fatalf("clean prefix %d of %d unsuitable for the test", clean, rep.Len())
	}
	cfg := kernelConfigs()["tagless-pattern"]
	ctx := context.Background()

	want := RunAccuracyCtx(ctx, damaged, budget, cfg)
	if !errors.Is(want.Err, trace.ErrCorrupt) {
		t.Fatalf("streaming run over damaged capture: err=%v", want.Err)
	}
	got := RunAccuracySegmentedCtx(ctx, damaged, budget, 3, cfg)
	if !errors.Is(got.Err, trace.ErrCorrupt) {
		t.Fatalf("segmented run over damaged capture: err=%v", got.Err)
	}
	got.Err, want.Err = nil, nil
	if got != want {
		t.Fatalf("partial counters diverge\n  segmented %+v\n  streaming %+v", got, want)
	}

	within := (clean / trace.BlockLen) * trace.BlockLen
	want = RunAccuracyCtx(ctx, damaged, within, cfg)
	if want.Err != nil {
		t.Fatalf("streaming run within clean prefix: err=%v", want.Err)
	}
	if got := RunAccuracySegmentedCtx(ctx, damaged, within, 3, cfg); got != want {
		t.Fatalf("clean-prefix run diverges\n  segmented %+v\n  streaming %+v", got, want)
	}
}

// TestSegmentedFallbacks asserts the runs that cannot be segmented take
// the plain path: one segment, tiny captures, non-batched factories and
// telemetry-collecting configs.
func TestSegmentedFallbacks(t *testing.T) {
	w, err := workload.ByName("go")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	before := SegmentCounters().SegmentedRuns

	tiny := trace.Capture(trace.NewLimit(w.Open(), trace.BlockLen))
	if got, want := RunAccuracySegmentedCtx(ctx, tiny, trace.BlockLen, 8, cfg), RunAccuracyCtx(ctx, tiny, trace.BlockLen, cfg); got != want {
		t.Fatalf("tiny capture diverges: %+v vs %+v", got, want)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 8*trace.BlockLen))
	if got, want := RunAccuracySegmentedCtx(ctx, rep, 8*trace.BlockLen, 1, cfg), RunAccuracyCtx(ctx, rep, 8*trace.BlockLen, cfg); got != want {
		t.Fatalf("segments=1 diverges: %+v vs %+v", got, want)
	}
	if got, want := RunAccuracySegmentedCtx(ctx, opaqueFactory{rep}, 8*trace.BlockLen, 4, cfg), RunAccuracyCtx(ctx, rep, 8*trace.BlockLen, cfg); got != want {
		t.Fatalf("streaming factory diverges: %+v vs %+v", got, want)
	}
	if after := SegmentCounters().SegmentedRuns; after != before {
		t.Fatalf("fallback runs incremented SegmentedRuns by %d", after-before)
	}
}

// TestSegmentedCancellation: a cancelled segmented run reports the
// context error and partial counts, like the plain path.
func TestSegmentedCancellation(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 24 * trace.BlockLen
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunAccuracySegmentedCtx(ctx, rep, budget, 4, DefaultConfig())
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled run: err=%v", res.Err)
	}
	if res.Instructions >= budget {
		t.Fatalf("cancelled run processed the full budget (%d)", res.Instructions)
	}
}

// TestPlanSegments checks the seam planner's invariants: block-aligned,
// strictly increasing boundaries from 0 to effN, never more than asked.
func TestPlanSegments(t *testing.T) {
	for _, tc := range []struct {
		effN     int64
		segments int
	}{
		{100 * trace.BlockLen, 4},
		{100 * trace.BlockLen, 8},
		{5 * trace.BlockLen, 2},
		{3 * trace.BlockLen, 8},
		{2*trace.BlockLen + 17, 2},
		{trace.BlockLen, 4},
		{0, 4},
	} {
		seams := planSegments(tc.effN, tc.segments)
		if seams == nil {
			if tc.effN >= int64(tc.segments)*minSegmentSpan {
				t.Errorf("planSegments(%d, %d) declined a splittable capture", tc.effN, tc.segments)
			}
			continue
		}
		if seams[0] != 0 || seams[len(seams)-1] != tc.effN {
			t.Errorf("planSegments(%d, %d) = %v: bad endpoints", tc.effN, tc.segments, seams)
		}
		if len(seams)-1 > tc.segments {
			t.Errorf("planSegments(%d, %d) produced %d segments", tc.effN, tc.segments, len(seams)-1)
		}
		for i := 1; i < len(seams); i++ {
			if seams[i] <= seams[i-1] {
				t.Errorf("planSegments(%d, %d) = %v: not increasing", tc.effN, tc.segments, seams)
			}
			if i < len(seams)-1 && seams[i]%trace.BlockLen != 0 {
				t.Errorf("planSegments(%d, %d) = %v: seam %d not block-aligned", tc.effN, tc.segments, seams, seams[i])
			}
		}
		// Geometric placement: spans must not grow from one segment to
		// the next (later workers pay more priming, so they simulate
		// less), within a block of rounding slack.
		for i := 2; i < len(seams); i++ {
			prev := seams[i-1] - seams[i-2]
			cur := seams[i] - seams[i-1]
			if cur > prev+trace.BlockLen {
				t.Errorf("planSegments(%d, %d) = %v: span %d grew", tc.effN, tc.segments, seams, i-1)
			}
		}
	}
}

// BenchmarkPrimeVsSimulate measures the two kernel walks a segment worker
// makes over the same capture — the priming walk (counting off) and the
// counted walk — in ns per instruction. Their ratio is primeCostRatio.
func BenchmarkPrimeVsSimulate(b *testing.B) {
	const budget = 1_000_000
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	rep := w.Replay(budget)
	ctx := context.Background()
	for _, name := range []string{"tagless-pattern", "tagged-path"} {
		cfg := kernelConfigs()[name]
		for _, walk := range []string{"prime", "simulate"} {
			sp := span{bs: rep, end: budget, prime: walk == "prime"}
			b.Run(name+"/"+walk, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					soloGang(cfg).run(ctx, sp)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(budget*int64(b.N)), "ns/instr")
			})
		}
	}
}
