package sim

import (
	"context"

	"repro/internal/stats"
	"repro/internal/trace"
)

// ctxCheckMask sets how often the accuracy drivers poll ctx.Err: every
// 16384 instructions, cheap enough to be invisible in profiles while
// keeping cancellation latency well under a millisecond.
const ctxCheckMask = 1<<14 - 1

// AccuracyResult reports prediction accuracy over one trace, split by
// branch class. Indirect is the paper's headline population: indirect
// jumps and indirect calls, excluding returns.
type AccuracyResult struct {
	Instructions int64
	Branches     int64

	Conditional stats.Counter // direction+target of conditional branches
	Direct      stats.Counter // unconditional direct jumps and calls
	Returns     stats.Counter
	Indirect    stats.Counter // target-cache population
	Overall     stats.Counter
	// TCCovered counts indirect jumps for which the target cache supplied
	// the prediction (vs falling back to the BTB), a coverage diagnostic
	// for tagged caches.
	TCCovered int64

	// Err is non-nil when the run stopped early: a corrupt trace source
	// (wrapping trace.ErrCorrupt) or a cancelled context. The counters
	// above cover the instructions processed before the stop.
	Err error
}

// IndirectMispredictRate returns the indirect-jump misprediction rate, the
// paper's primary accuracy metric.
func (r AccuracyResult) IndirectMispredictRate() float64 {
	return r.Indirect.MispredictRate()
}

// RunAccuracy drives up to budget instructions from factory through a fresh
// engine built from cfg, counting per-class mispredictions.
func RunAccuracy(factory trace.Factory, budget int64, cfg Config) AccuracyResult {
	return RunAccuracyCtx(context.Background(), factory, budget, cfg)
}

// RunAccuracyCtx is RunAccuracy under a context: the loop polls ctx on
// instruction-count boundaries and stops early with Err set to ctx.Err()
// when cancelled, returning the partial counts accumulated so far.
//
// When factory is a memoized trace.Replay (or any other
// trace.BlockSource), the run is a one-member gang on the batched
// kernel with devirtualized predictor calls; results are
// identical to the streaming loop in RunAccuracyWithFlushesCtx, which
// remains the reference path for arbitrary sources.
func RunAccuracyCtx(ctx context.Context, factory trace.Factory, budget int64, cfg Config) AccuracyResult {
	return RunAccuracyWithFlushesCtx(ctx, factory, budget, 0, cfg)
}

// RunAccuracyWithFlushes is RunAccuracy with the entire front end reset
// every flushInterval instructions, modelling context switches that wipe
// predictor state. It measures how quickly each structure re-warms: the
// BTB needs one encounter per jump, a history-indexed target cache one
// encounter per (jump, history) pair, so frequent switches erode the
// target cache's advantage first — a classic objection the experiment
// quantifies. An interval of 0 never flushes.
func RunAccuracyWithFlushes(factory trace.Factory, budget, flushInterval int64, cfg Config) AccuracyResult {
	return RunAccuracyWithFlushesCtx(context.Background(), factory, budget, flushInterval, cfg)
}

// RunAccuracyWithFlushesCtx is RunAccuracyWithFlushes under a context; see
// RunAccuracyCtx for the cancellation contract and the batched path.
func RunAccuracyWithFlushesCtx(ctx context.Context, factory trace.Factory, budget, flushInterval int64, cfg Config) AccuracyResult {
	if bs, ok := blocksFor(factory); ok {
		return soloGang(cfg).run(ctx, span{bs: bs, end: budget, flushInterval: flushInterval})[0]
	}
	engine := NewEngine(cfg)
	var res AccuracyResult
	src := trace.NewLimit(factory.Open(), budget)
	var r trace.Record
	for src.Next(&r) {
		res.Instructions++
		if res.Instructions&ctxCheckMask == 0 {
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
			// Accuracy runs have no cycle clock; telemetry events are
			// stamped with the instruction index instead. Nil-safe.
			engine.Tel.SetClock(res.Instructions)
		}
		res.Overall.Record(correct)
		engine.Resolve(&r, p)
	}
	res.Err = trace.SourceErr(src)
	return res
}
