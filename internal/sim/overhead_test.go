package sim_test

// Telemetry cost guard: the instrumentation layer promises that DISABLED
// telemetry costs the streaming accuracy loop essentially nothing (a
// nil-safe clock call per indirect jump plus one nil check in
// Engine.Resolve). The test below holds sim.RunAccuracy's streaming loop to
// within 2% of a telemetry-free copy of that same loop; the benchmarks
// report the enabled cost on the batched kernel for profiling.

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// streamOnly hides a capture's decoded blocks, so sim.RunAccuracy takes
// its streaming loop over it instead of the batched kernel.
type streamOnly struct{ f trace.Factory }

func (s streamOnly) Open() trace.Source { return s.f.Open() }

// plainAccuracyLoop is sim.Run's streaming loop with
// every telemetry touchpoint deleted — the pre-instrumentation loop, kept
// here as the throughput reference. If the two drift apart structurally,
// update this copy.
func plainAccuracyLoop(factory trace.Factory, budget, flushInterval int64, cfg sim.Config) sim.AccuracyResult {
	ctx := context.Background()
	engine := sim.NewEngine(cfg)
	var res sim.AccuracyResult
	src := trace.NewLimit(factory.Open(), budget)
	var r trace.Record
	for src.Next(&r) {
		res.Instructions++
		if res.Instructions&(1<<14-1) == 0 {
			if err := ctx.Err(); err != nil {
				res.Err = err
				return res
			}
		}
		if flushInterval > 0 && res.Instructions%flushInterval == 0 {
			engine.Reset()
		}
		if !r.Class.IsBranch() {
			continue
		}
		res.Branches++
		p := engine.Predict(&r)
		correct := p.Correct(&r)
		switch r.Class {
		case trace.ClassCondDirect:
			res.Conditional.Record(correct)
		case trace.ClassUncondDirect, trace.ClassCall:
			res.Direct.Record(correct)
		case trace.ClassReturn:
			res.Returns.Record(correct)
		case trace.ClassIndJump, trace.ClassIndCall:
			res.Indirect.Record(correct)
			if p.FromTC {
				res.TCCovered++
			}
		}
		res.Overall.Record(correct)
		engine.Resolve(&r, p)
	}
	res.Err = trace.SourceErr(src)
	return res
}

// TestDisabledTelemetryOverhead pins the <2% disabled-cost budget on the
// median of many back-to-back pairs over the same streaming source. The two
// loops are separate functions, so code layout alone moves the median by
// about ±2% between builds, and single pairs on a shared 2-vCPU host spread
// ±5%; the measurement therefore retries a few times before declaring a
// failure. An overhead well above 2% fails every attempt.
func TestDisabledTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement simulates tens of millions of instructions")
	}
	const budget = 1_000_000
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	src := streamOnly{w.Replay(budget)}
	cfg := sim.DefaultConfig()

	// Warm up: fault in the replay and JIT-warm both paths, and make sure
	// the two loops still compute identical results (a drifted copy would
	// make the comparison meaningless).
	plain := plainAccuracyLoop(src, budget, 0, cfg)
	inst := sim.RunAccuracy(src, budget, cfg)
	if plain != inst {
		t.Fatalf("reference loop drifted from sim.RunAccuracy:\nplain: %+v\ninst:  %+v", plain, inst)
	}

	timed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	plainRun := func() { plainAccuracyLoop(src, budget, 0, cfg) }
	instRun := func() { sim.RunAccuracy(src, budget, cfg) }
	// measure times the two loops back to back, pairs times, alternating
	// which runs first, and returns the median instrumented/plain ratio: a
	// slow spell on a shared host then hits both halves of a pair, and the
	// median drops the pairs it split.
	measure := func(pairs int) float64 {
		ratios := make([]float64, pairs)
		for i := range ratios {
			var base, with time.Duration
			if i%2 == 0 {
				base, with = timed(plainRun), timed(instRun)
			} else {
				with, base = timed(instRun), timed(plainRun)
			}
			ratios[i] = float64(with) / float64(base)
		}
		slices.Sort(ratios)
		return ratios[pairs/2]
	}

	const maxOverhead = 1.02
	var ratio float64
	for attempt := 0; attempt < 5; attempt++ {
		ratio = measure(41)
		t.Logf("attempt %d: median disabled-telemetry ratio %.4f", attempt, ratio)
		if ratio <= maxOverhead {
			return
		}
	}
	t.Errorf("disabled telemetry costs %.1f%% of accuracy throughput, budget is 2%%", (ratio-1)*100)
}

func benchmarkAccuracy(b *testing.B, col func() *telemetry.Collector) {
	const budget = 1_000_000
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	rep := w.Replay(budget)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Telemetry = col()
		sim.RunAccuracy(rep, budget, cfg)
	}
	b.ReportMetric(float64(budget*int64(b.N))/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkAccuracyTelemetryOff(b *testing.B) {
	benchmarkAccuracy(b, func() *telemetry.Collector { return nil })
}

func BenchmarkAccuracyTelemetryOn(b *testing.B) {
	benchmarkAccuracy(b, func() *telemetry.Collector {
		return telemetry.NewCollector(telemetry.Config{Events: 64})
	})
}
