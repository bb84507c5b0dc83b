package sim

import (
	"context"
	"math/bits"

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
//     construction, and the bench groups an experiment's runs by front
//     end); probe, direction prediction and training run once;
//   - per-scheme history registers: members naming the same HistShare key
//     provably construct identical providers, so the register is computed
//     and trained once and its Value is read by every member using that
//     scheme.
//
// Per member there remains only the target cache itself (a BTB-only
// member has none and reads the BTB's target) and its optional telemetry
// collector — flat tables allocated per member, with the member
// bookkeeping (history index, divergence counters) laid out contiguously
// in one slice — touched only on records whose prediction or update
// actually consults it: indirect jumps and calls, plus the rare record
// whose stale BTB entry misclassifies it as indirect. Everything else is
// accumulated once in shared counters and added into every member's
// result at the end, so the per-record marginal cost of a gang member is
// zero on the ~95% of branches that never touch a target cache.
//
// Equivalence contract: for every member, the returned AccuracyResult is
// struct-identical to sim.RunAccuracy over the same factory, budget and
// config, and its telemetry collector ends up deep-equal to a solo run's.
// TestGangMatchesSolo, TestGangTelemetryMatchesSolo and the sweep
// package's differential harness pin this at gang widths 1, 4 and K
// across worker counts.

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
	// Mispredicts, when non-nil, receives the member's per-branch
	// mispredict bits once the pass returns (see BranchBits): what a
	// timing pass reads in place of a predictor. A gang with no such
	// member records no bits.
	Mispredicts *BranchBits
}

// BranchBits is one member's per-branch outcome record over a pass: bit
// i (word i/64, bit i%64) is set when the member mispredicted the pass's
// i-th branch record. It holds one bit per branch record, not per
// instruction.
type BranchBits []uint64

// Has reports whether branch i was mispredicted; bits past the end read
// as correct predictions.
func (b BranchBits) Has(i int64) bool {
	w := i >> 6
	return w < int64(len(b)) && b[w]>>(i&63)&1 != 0
}

// Set marks branch i mispredicted, growing b as needed.
func (b BranchBits) Set(i int64) BranchBits {
	for int64(len(b)) <= i>>6 {
		b = append(b, 0)
	}
	b[i>>6] |= 1 << (i & 63)
	return b
}

// each calls f with every set bit's index, in increasing order.
func (b BranchBits) each(f func(i int64)) {
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			f(int64(wi)<<6 + int64(bits.TrailingZeros64(w)))
		}
	}
}

// RunAccuracyGang is RunAccuracyGangCtx under context.Background.
func RunAccuracyGang(factory trace.Factory, budget int64, pts []GangPoint) ([]AccuracyResult, bool) {
	return RunAccuracyGangCtx(context.Background(), factory, budget, pts)
}

// RunAccuracyGangCtx simulates every member of pts over a single pass of
// factory's decoded block stream and returns one AccuracyResult per
// member, in order, each struct-identical to what RunAccuracyCtx would
// report for that member alone. A member may be the BTB-only baseline (no
// target cache) and may carry a telemetry collector, which receives
// exactly the events a solo run would give it.
//
// The second return is false — and no simulation runs — when the gang
// cannot be fused: it is empty, the factory exposes no decoded
// BlockSource, or the members disagree on front-end configuration.
// Callers fall back to per-point runs.
func RunAccuracyGangCtx(ctx context.Context, factory trace.Factory, budget int64, pts []GangPoint) ([]AccuracyResult, bool) {
	return RunAccuracyGangSegmentedCtx(ctx, factory, budget, 0, 1, pts)
}

// RunAccuracyGangSegmentedCtx is RunAccuracyGangCtx with the two options
// of the solo drivers: every member's structures (and the shared front
// end) reset every flushInterval instructions, 0 never, as in
// RunAccuracyWithFlushes; and the capture split into up to `segments`
// concurrently simulated segments, as in RunAccuracySegmentedCtx. Each
// member's result is struct-identical to RunAccuracyWithFlushesCtx of
// that member alone. It refuses exactly the gangs RunAccuracyGangCtx
// refuses.
func RunAccuracyGangSegmentedCtx(ctx context.Context, factory trace.Factory, budget, flushInterval int64, segments int, pts []GangPoint) ([]AccuracyResult, bool) {
	if len(pts) == 0 {
		return nil, false
	}
	bs, ok := blocksFor(factory)
	if !ok {
		return nil, false
	}
	front := pts[0].Config
	for _, pt := range pts[1:] {
		if cfg := pt.Config; cfg.BTB != front.BTB || cfg.RASDepth != front.RASDepth || cfg.Dir != front.Dir {
			return nil, false
		}
	}
	return runSegmented(ctx, span{bs: bs, end: budget, flushInterval: flushInterval}, segments, pts), true
}
