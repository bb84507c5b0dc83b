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
		want := RunAccuracy(rep, budget, cfg)
		for _, segments := range []int{1, 2, 3, 5, 8} {
			got := runOne(t, ctx, rep, Options{Budget: budget, Segments: segments}, cfg)
			if got != want {
				t.Errorf("%s segments=%d: result diverges\n  segmented %+v\n  streaming %+v", name, segments, got, want)
			}
		}
		// A budget short of the capture, so the final seam is interior.
		partial := int64(budget - 3*trace.BlockLen/2)
		want = RunAccuracy(rep, partial, cfg)
		if got := runOne(t, ctx, rep, Options{Budget: partial, Segments: 4}, cfg); got != want {
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
			want[i] = runOne(t, ctx, rep, Options{Budget: budget, FlushInterval: flush}, pt.Config)
		}
		for _, segments := range []int{1, 2, 3, 5, 8} {
			got := runGang(t, ctx, rep, Options{Budget: budget, FlushInterval: flush, Segments: segments}, pts)
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
// trace store with a resident budget of one group, so segments keep
// decoding and dropping the rest, covering the segmented kernel's only
// other BlockSource.
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
	cfg := kernelConfigs()["tagged-path"]
	want := RunAccuracy(rep, budget, cfg)
	if got := RunAccuracy(store, budget, cfg); got != want {
		t.Fatalf("store plain run diverges\n  store  %+v\n  memory %+v", got, want)
	}
	if got := runOne(t, context.Background(), store, Options{Budget: budget, Segments: 4}, cfg); got != want {
		t.Fatalf("store segmented run diverges\n  store  %+v\n  memory %+v", got, want)
	}
	if groups := int64(store.NumBlocks() / 2); store.CacheStats().Misses <= groups {
		t.Fatalf("store decoded each of its %d groups once (stats %+v); budget too loose for the test", groups, store.CacheStats())
	}
}

// TestRunOverStoreMatchesReplay runs a target-cache gang and a BTB gang
// over a compressed trace store, whose accuracy walks read only the
// control-flow columns (FlowAt), in one pass and in four segments: every
// member's result must equal its result over the in-memory capture. The
// store's budget holds two of its eight groups decoded in flow form, so
// the passes keep decoding groups and dropping them, and a record cursor
// read between the runs (BlockAt) has full decodes replace flow-form ones.
func TestRunOverStoreMatchesReplay(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	var img bytes.Buffer
	if _, err := trace.WriteStore(&img, rep.Open(), trace.StoreOptions{Compress: true, GroupRecords: 2 * trace.BlockLen}); err != nil {
		t.Fatal(err)
	}
	store, err := trace.OpenStore(bytes.NewReader(img.Bytes()), int64(img.Len()), 2*2*trace.BlockLen*(2*8+1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, gang := range []struct {
		name string
		pts  func() []GangPoint
	}{{"gang", gangPoints}, {"btb-gang", btbGangPoints}} {
		for _, segments := range []int{1, 4} {
			opts := Options{Budget: budget, Segments: segments}
			want := runGang(t, ctx, rep, opts, gang.pts())
			got := runGang(t, ctx, store, opts, gang.pts())
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s, %d segments, member %d: store run diverges\n  store  %+v\n  memory %+v", gang.name, segments, i, got[i], want[i])
				}
			}
		}
		if n := len(trace.Collect(store.Open())); n != budget {
			t.Fatalf("cursor read %d records of the store, want %d", n, budget)
		}
	}
	if groups := int64(store.NumBlocks()+1) / 2; store.CacheStats().Misses <= 2*groups {
		t.Fatalf("store made %d decodes of its %d groups; budget too loose for the test", store.CacheStats().Misses, groups)
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

	want := RunAccuracy(damaged, budget, cfg)
	if !errors.Is(want.Err, trace.ErrCorrupt) {
		t.Fatalf("streaming run over damaged capture: err=%v", want.Err)
	}
	got := runOne(t, ctx, damaged, Options{Budget: budget, Segments: 3}, cfg)
	if !errors.Is(got.Err, trace.ErrCorrupt) {
		t.Fatalf("segmented run over damaged capture: err=%v", got.Err)
	}
	got.Err, want.Err = nil, nil
	if got != want {
		t.Fatalf("partial counters diverge\n  segmented %+v\n  streaming %+v", got, want)
	}

	within := (clean / trace.BlockLen) * trace.BlockLen
	want = RunAccuracy(damaged, within, cfg)
	if want.Err != nil {
		t.Fatalf("streaming run within clean prefix: err=%v", want.Err)
	}
	if got := runOne(t, ctx, damaged, Options{Budget: within, Segments: 3}, cfg); got != want {
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
	if got, want := runOne(t, ctx, tiny, Options{Budget: trace.BlockLen, Segments: 8}, cfg), RunAccuracy(tiny, trace.BlockLen, cfg); got != want {
		t.Fatalf("tiny capture diverges: %+v vs %+v", got, want)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 8*trace.BlockLen))
	if got, want := runOne(t, ctx, rep, Options{Budget: 8 * trace.BlockLen, Segments: 1}, cfg), RunAccuracy(rep, 8*trace.BlockLen, cfg); got != want {
		t.Fatalf("segments=1 diverges: %+v vs %+v", got, want)
	}
	if got, want := runOne(t, ctx, opaqueFactory{rep}, Options{Budget: 8 * trace.BlockLen, Segments: 4}, cfg), RunAccuracy(rep, 8*trace.BlockLen, cfg); got != want {
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
	res := runOne(t, ctx, rep, Options{Budget: budget, Segments: 4}, DefaultConfig())
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
					newGang(ctx, sp, []GangPoint{{Config: cfg}}).run(ctx, sp)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(budget*int64(b.N)), "ns/instr")
			})
		}
	}
}
