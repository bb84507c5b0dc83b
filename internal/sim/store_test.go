package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunOverTightStore runs a target-cache member over a compressed
// trace store of ten two-block groups whose resident budget (three blocks
// of full records) keeps two of them decoded in flow form, so a pass
// decodes the rest and drops them. Each of two runs must equal the run
// over the in-memory capture, and the second must decode again the
// groups the first dropped.
func TestRunOverTightStore(t *testing.T) {
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
	for run := 0; run < 2; run++ {
		if got := RunAccuracy(store, budget, cfg); got != want {
			t.Fatalf("store run %d diverges\n  store  %+v\n  memory %+v", run, got, want)
		}
	}
	if groups := int64(store.NumBlocks() / 2); store.CacheStats().Misses <= groups {
		t.Fatalf("store decoded each of its %d groups once (stats %+v); budget too loose for the test", groups, store.CacheStats())
	}
}

// TestRunOverStoreMatchesReplay runs a target-cache gang and a BTB gang
// over a compressed trace store, whose accuracy walks read only the
// control-flow columns (FlowAt): every member's result must equal its
// result over the in-memory capture. The store's budget holds two of its
// eight groups decoded in flow form, so the passes keep decoding groups
// and dropping them, and a record cursor read between the runs (BlockAt)
// has full decodes replace flow-form ones.
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
		opts := Options{Budget: budget}
		want := runGang(t, ctx, rep, opts, gang.pts())
		got := runGang(t, ctx, store, opts, gang.pts())
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s, member %d: store run diverges\n  store  %+v\n  memory %+v", gang.name, i, got[i], want[i])
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

// TestRunCorruptTail pins the damaged-capture contract against the
// streaming loop over the same store: a run whose budget reaches the
// damaged group stops with an ErrCorrupt over the streaming loop's
// partial counters, and a run that ends with the clean prefix reports the
// streaming loop's result and no error.
func TestRunCorruptTail(t *testing.T) {
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

	opts := Options{Budget: budget}
	want := runOne(t, ctx, opaqueFactory{damaged}, opts, cfg)
	if !errors.Is(want.Err, trace.ErrCorrupt) {
		t.Fatalf("streaming run over damaged capture: err=%v", want.Err)
	}
	got := runOne(t, ctx, damaged, opts, cfg)
	if !errors.Is(got.Err, trace.ErrCorrupt) {
		t.Fatalf("kernel run over damaged capture: err=%v", got.Err)
	}
	got.Err, want.Err = nil, nil
	if got != want {
		t.Fatalf("partial counters diverge\n  kernel    %+v\n  streaming %+v", got, want)
	}

	opts.Budget = clean
	want = runOne(t, ctx, opaqueFactory{damaged}, opts, cfg)
	if want.Err != nil {
		t.Fatalf("streaming run within clean prefix: err=%v", want.Err)
	}
	if got := runOne(t, ctx, damaged, opts, cfg); got != want {
		t.Fatalf("clean-prefix run diverges\n  kernel    %+v\n  streaming %+v", got, want)
	}
}
