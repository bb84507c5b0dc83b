package sim

import (
	"context"
	"fmt"

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

// Options are what an accuracy run simulates besides its members.
type Options struct {
	// Budget is the number of instructions to simulate, from the start of
	// the trace.
	Budget int64
	// FlushInterval resets every structure each FlushInterval
	// instructions, modelling context switches that wipe predictor state:
	// the BTB re-warms after one encounter per jump, a history-indexed
	// target cache after one per (jump, history) pair. 0 never flushes.
	FlushInterval int64
}

// Run simulates every member of pts over factory's first opts.Budget
// instructions and returns one AccuracyResult per member, in order. A
// member may be the BTB-only baseline (no target cache) and may carry a
// telemetry collector.
//
// Over a decoded trace.BlockSource — a memoized capture or a trace-store
// file — every member runs in one fused, sequential pass of the batched
// kernel (gang.go). Over any other factory each member runs alone on the
// streaming reference loop, which records no mispredict bits. Either way
// each member's result is struct-identical to the one it gets alone.
//
// Run simulates nothing and returns an error naming the reason when pts
// cannot share one pass: it is empty, its members differ in direction
// predictor, or they differ in RAS depth or BTB other than as front-end
// variants (gang.go) — where every member that carries a target cache or
// records mispredict bits comes first, on the first member's front end,
// and the rest differ from it at most in update strategy and RAS depth —
// or as a BTB gang, whose members carry no target cache and share the RAS
// depth; or a member asks for mispredict bits over a factory that is not
// decoded. Otherwise the error is nil, and each result's Err
// reports an early stop: a corrupt trace (wrapping trace.ErrCorrupt) or
// ctx's error, over the counters of the instructions processed before it.
func Run(ctx context.Context, factory trace.Factory, opts Options, pts []GangPoint) ([]AccuracyResult, error) {
	if err := fusable(pts); err != nil {
		return nil, err
	}
	if bs, ok := factory.(trace.BlockSource); ok {
		return runFused(ctx, span{bs: bs, end: opts.Budget, flushInterval: opts.FlushInterval}, pts), nil
	}
	for i, pt := range pts {
		if pt.Mispredicts != nil {
			return nil, fmt.Errorf("sim: member %d asks for mispredict bits over a trace that is not decoded", i)
		}
	}
	out := make([]AccuracyResult, len(pts))
	for i, pt := range pts {
		out[i] = runStreaming(ctx, factory, opts, pt.Config)
	}
	return out, nil
}

// RunAccuracy is Run of the one member cfg over budget instructions.
func RunAccuracy(factory trace.Factory, budget int64, cfg Config) AccuracyResult {
	// Run refuses no lone member that asks for no mispredict bits.
	res, _ := Run(context.Background(), factory, Options{Budget: budget}, []GangPoint{{Config: cfg}})
	return res[0]
}

// runStreaming is the streaming reference loop: cfg's Engine over the
// records factory opens, polling ctx every ctxCheckMask+1 instructions.
func runStreaming(ctx context.Context, factory trace.Factory, opts Options, cfg Config) AccuracyResult {
	engine := NewEngine(cfg)
	var res AccuracyResult
	src := trace.NewLimit(factory.Open(), opts.Budget)
	var r trace.Record
	for src.Next(&r) {
		res.Instructions++
		if res.Instructions&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				res.Err = err
				return res
			}
		}
		if fi := opts.FlushInterval; fi > 0 && res.Instructions%fi == 0 {
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
