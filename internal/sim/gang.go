package sim

import (
	"context"

	"repro/internal/trace"
)

// Fused gang replay: one pass over a decoded block stream drives K
// predictor configurations in lockstep. The sweep engine's grids multiply
// hundreds of points over the same handful of captures, and without
// fusion every point re-traverses its capture end to end; here the
// traversal — and everything in the front end that evolves identically
// for every member — happens once per gang instead of once per point.
// The batched kernel (kernel.go) is written for gangs throughout: a solo
// accuracy run is the gang of one.
//
// What makes fusion sound: the baseline front-end structures (BTB, return
// address stack, direction predictor) and the branch-history registers
// train purely on the resolved record stream, never on prediction
// outcomes, so two runs differing only in their target cache hold
// bit-identical front-end state at every instruction. A gang therefore
// shares
//
//   - one block iteration: record fields (pc/target/class byte) are read
//     once per block for the whole gang;
//   - one front end: every member must carry the same BTB geometry, RAS
//     depth and direction-predictor config (the sweep's target-cache
//     families all use the paper's baseline front end, so this holds by
//     construction); probe, direction prediction and training run once;
//   - per-scheme history registers: members naming the same HistShare key
//     provably construct identical providers, so the register is computed
//     and trained once and its Value is read by every member using that
//     scheme.
//
// Per member there remains only the target cache itself — flat tables
// allocated per member, with the member bookkeeping (history index,
// divergence counters) laid out contiguously in one slice — touched only
// on records whose prediction or update actually consults it: indirect
// jumps and calls, plus the rare record whose stale BTB entry
// misclassifies it as indirect. Everything else is accumulated once in
// shared counters and added into every member's result at the end, so the
// per-record marginal cost of a gang member is zero on the ~95% of
// branches that never touch a target cache.
//
// Equivalence contract: for every member, the returned AccuracyResult is
// struct-identical to sim.RunAccuracy over the same factory, budget and
// config. TestGangMatchesSolo and the sweep package's differential
// harness pin this at gang widths 1, 4 and K across worker counts.

// GangPoint is one member of a fused gang: a full simulation config plus
// an optional history-sharing key.
type GangPoint struct {
	Config Config
	// HistShare, when non-empty, identifies the member's history
	// configuration: members with equal keys are guaranteed by the caller
	// to construct identical history providers (same kind, same depth,
	// same path parameters) and share a single register. An empty key
	// gives the member a private provider, which is always safe.
	HistShare string
}

// RunAccuracyGang is RunAccuracyGangCtx under context.Background.
func RunAccuracyGang(factory trace.Factory, budget int64, pts []GangPoint) ([]AccuracyResult, bool) {
	return RunAccuracyGangCtx(context.Background(), factory, budget, pts)
}

// RunAccuracyGangCtx simulates every member of pts over a single pass of
// factory's decoded block stream and returns one AccuracyResult per
// member, in order, each struct-identical to what RunAccuracyCtx would
// report for that member alone.
//
// The second return is false — and no simulation runs — when the gang
// cannot be fused: the factory exposes no decoded BlockSource, a member
// lacks a target cache (the BTB-only family sweeps its front-end geometry,
// which is exactly the state fusion shares), a member carries a telemetry
// collector (collectors are single-run), or the members disagree on
// front-end configuration. Callers fall back to per-point runs.
func RunAccuracyGangCtx(ctx context.Context, factory trace.Factory, budget int64, pts []GangPoint) ([]AccuracyResult, bool) {
	if len(pts) == 0 {
		return nil, false
	}
	bs, ok := blocksFor(factory)
	if !ok {
		return nil, false
	}
	front := pts[0].Config
	for _, pt := range pts {
		cfg := pt.Config
		if cfg.NewTargetCache == nil || cfg.NewHistory == nil || cfg.Telemetry != nil {
			return nil, false
		}
		if cfg.BTB != front.BTB || cfg.RASDepth != front.RASDepth || cfg.Dir != front.Dir {
			return nil, false
		}
	}
	return newGang(pts).run(ctx, span{bs: bs, end: budget}), true
}
