package sim_test

// External test package: sim must not import workload (workloads depend on
// the VM, the simulators depend only on traces), so the cross-package
// concurrency check lives out here. It is the `go test -race` probe for the
// parallel experiment runner's core assumption — many simulations reading
// one shared immutable replay buffer at once.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestConcurrentAccuracyOverSharedReplay runs many accuracy simulations
// concurrently against one memoized replay and requires every run to agree
// with a serial reference run. Under -race this also proves the replay
// cursors share no mutable state.
func TestConcurrentAccuracyOverSharedReplay(t *testing.T) {
	const budget = 50_000
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	rep := w.Replay(budget)
	ref := sim.RunAccuracy(rep, budget, sim.DefaultConfig())

	const goroutines = 8
	results := make([]sim.AccuracyResult, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = sim.RunAccuracy(rep, budget, sim.DefaultConfig())
		}()
	}
	wg.Wait()
	for i, res := range results {
		if res != ref {
			t.Errorf("goroutine %d: result %+v differs from serial reference %+v", i, res, ref)
		}
	}
}

// TestConcurrentRunsOverTightStore runs one-pass simulations from several
// goroutines at once over one shared replay and over one shared
// out-of-core store whose resident budget holds one group, so the rest are
// decoded, shared and dropped under load. Under -race this proves the
// store's group slots share no unsynchronized mutable state; the result
// check proves determinism survives the contention.
func TestConcurrentRunsOverTightStore(t *testing.T) {
	const budget = 20 * trace.BlockLen
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rep := w.Replay(budget)
	var img bytes.Buffer
	if _, err := trace.WriteStore(&img, rep.Open(), trace.StoreOptions{GroupRecords: 2 * trace.BlockLen}); err != nil {
		t.Fatal(err)
	}
	store, err := trace.OpenStore(bytes.NewReader(img.Bytes()), int64(img.Len()), 3*trace.BlockLen*(3*8+4))
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.RunAccuracy(rep, budget, sim.DefaultConfig())

	const goroutines = 6
	results := make([]sim.AccuracyResult, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := trace.Factory(rep)
			if i%2 == 1 {
				src = store
			}
			res, err := sim.Run(context.Background(), src, sim.Options{Budget: budget}, []sim.GangPoint{{Config: sim.DefaultConfig()}})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res[0]
		}()
	}
	wg.Wait()
	for i, res := range results {
		if res != ref {
			t.Errorf("goroutine %d: result %+v differs from serial reference %+v", i, res, ref)
		}
	}
}
