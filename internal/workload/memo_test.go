package workload

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// TestReplayCapturesOncePerKey hammers one (workload, budget) key from many
// goroutines and asserts the VM ran exactly once and every caller saw the
// same capture.
func TestReplayCapturesOncePerKey(t *testing.T) {
	ResetMemo()
	w, err := ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20_000
	before := CaptureCount()
	reps := make([]trace.BlockSource, 16)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i] = w.Replay(budget)
		}()
	}
	wg.Wait()
	if got := CaptureCount() - before; got != 1 {
		t.Fatalf("capture count = %d, want 1", got)
	}
	for i, rep := range reps {
		if rep != reps[0] {
			t.Fatalf("goroutine %d got a different Replay pointer", i)
		}
	}
	if reps[0].Len() != budget {
		t.Fatalf("captured %d records, want %d", reps[0].Len(), budget)
	}
	// A different budget is a different key: one more capture.
	w.Replay(budget / 2)
	if got := CaptureCount() - before; got != 2 {
		t.Fatalf("capture count after second key = %d, want 2", got)
	}
	keys, bytes := MemoStats()
	if keys != 2 || bytes <= 0 {
		t.Fatalf("MemoStats = %d keys, %d bytes; want 2 keys and nonzero bytes", keys, bytes)
	}
}

// TestReplayMatchesLiveVM asserts the memoized capture is record-for-record
// identical to a fresh VM pass — the invariant that makes replay-backed
// experiment cells byte-identical to VM-backed ones.
func TestReplayMatchesLiveVM(t *testing.T) {
	for _, name := range []string{"perl", "gcc", "compress"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		const budget = 10_000
		live := trace.Collect(trace.NewLimit(w.Open(), budget))
		replayed := trace.Collect(w.Replay(budget).Open())
		if len(live) != len(replayed) {
			t.Fatalf("%s: live %d records, replay %d", name, len(live), len(replayed))
		}
		for i := range live {
			if live[i] != replayed[i] {
				t.Fatalf("%s: record %d: live %+v, replay %+v", name, i, live[i], replayed[i])
			}
		}
	}
}

// TestConcurrentProgramBuild races Program/Open/Replay across all
// workloads; under -race this is the audit that build-once program state
// (including synth.go's post-build jump-table patching) is safely
// published.
func TestConcurrentProgramBuild(t *testing.T) {
	ws := append(All(), Extras()...)
	var wg sync.WaitGroup
	for _, w := range ws {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if p := w.Program(); p == nil {
					t.Error("nil program")
				}
				var r trace.Record
				src := trace.NewLimit(w.Open(), 2_000)
				for src.Next(&r) {
				}
				if rep := w.Replay(1_000); rep.Len() != 1_000 {
					t.Errorf("%s: replay len %d", w.Name, rep.Len())
				}
			}()
		}
	}
	wg.Wait()
}

// TestReplayPrefixShares pins the static prefix fold: requests below the
// shared budget are served from the single shared capture, requests at or
// above it (or with a capture transform installed) keep their own key.
func TestReplayPrefixShares(t *testing.T) {
	ResetMemo()
	t.Cleanup(ResetMemo)
	w, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	base := CaptureCount()
	shared := w.ReplayPrefix(30_000, 50_000)
	if shared.Len() != 50_000 {
		t.Fatalf("shared capture Len = %d, want 50000", shared.Len())
	}
	if got := w.ReplayPrefix(50_000, 50_000); got != shared {
		t.Fatal("full-budget request did not reuse the shared capture")
	}
	if got := w.ReplayPrefix(10_000, 50_000); got != shared {
		t.Fatal("smaller request did not reuse the shared capture")
	}
	if got := CaptureCount() - base; got != 1 {
		t.Fatalf("capture count = %d, want 1", got)
	}

	// The prefix really is the prefix: simulating budget records over the
	// shared capture equals a dedicated budget-sized capture.
	dedicated := trace.Capture(trace.NewLimit(w.Open(), 30_000))
	sharedRecs := trace.Collect(trace.NewLimit(shared.Open(), 30_000))
	dedRecs := trace.Collect(dedicated.Open())
	if len(sharedRecs) != len(dedRecs) {
		t.Fatalf("prefix lengths differ: %d vs %d", len(sharedRecs), len(dedRecs))
	}
	for i := range dedRecs {
		if sharedRecs[i] != dedRecs[i] {
			t.Fatalf("record %d differs between shared and dedicated capture", i)
		}
	}

	// Fault injection must see exact-budget captures.
	TestCaptureTransform = func(name string, budget int64, rep *trace.Replay) trace.BlockSource { return rep }
	t.Cleanup(func() { TestCaptureTransform = nil })
	ResetMemo()
	if got := w.ReplayPrefix(30_000, 50_000); got.Len() != 30_000 {
		t.Fatalf("with transform installed, capture Len = %d, want 30000", got.Len())
	}
}

// TestSpillCapture pins the out-of-core path: above the threshold a
// capture streams to a trace-store file and replays from it, below it the
// in-memory path is untouched.
func TestSpillCapture(t *testing.T) {
	ResetMemo()
	t.Cleanup(func() {
		ConfigureSpill(SpillConfig{})
		ResetMemo()
	})
	w, err := ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ConfigureSpill(SpillConfig{Dir: dir, Threshold: 40_000, Compress: true})

	sc0, _ := SpillStats()
	small := w.Replay(20_000)
	if _, ok := small.(*trace.Replay); !ok {
		t.Fatalf("below-threshold capture is %T, want *trace.Replay", small)
	}
	big := w.Replay(60_000)
	store, ok := big.(*trace.Store)
	if !ok {
		t.Fatalf("above-threshold capture is %T, want *trace.Store", big)
	}
	if store.Len() != 60_000 {
		t.Fatalf("spilled capture Len = %d, want 60000", store.Len())
	}
	sc1, disk := SpillStats()
	if sc1-sc0 != 1 || disk <= 0 {
		t.Fatalf("SpillStats = %d captures, %d bytes; want 1 capture, positive size", sc1-sc0, disk)
	}
	if keys, bytes := MemoStats(); keys != 2 || bytes <= 0 {
		t.Fatalf("MemoStats = %d keys, %d bytes", keys, bytes)
	}

	// The spilled stream equals the in-memory capture record for record.
	mem := trace.Capture(trace.NewLimit(w.Open(), 60_000))
	got := trace.Collect(big.Open())
	want := trace.Collect(mem.Open())
	if len(got) != len(want) {
		t.Fatalf("spilled capture has %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs between spilled and in-memory capture", i)
		}
	}
}
