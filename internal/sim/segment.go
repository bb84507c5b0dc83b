package sim

// Segment-parallel accuracy replay: one capture's block stream is split
// into K segments simulated concurrently inside a single cell. Every
// predictor structure (BTB, RAS, direction predictor, history register,
// target cache) is a deterministic function of the branch stream consumed
// so far, so a worker that first *primes* its engine over the full prefix
// [0, seam) — performing exactly the state mutations the counted walk
// would, but accumulating no results — and then simulates [seam, next)
// produces byte-identical per-record outcomes to the streaming run.
// Results join in segment order; TestSegmentedMatchesStreaming pins the
// equivalence across segment counts, seam positions and predictor
// configurations.
//
// Priming is the kernel's walk with counting off, so it costs less than
// simulating (no counters, no direction lookup, no RAS peek), but every
// worker still walks the whole prefix: total work grows with K even as
// the critical path shrinks. The seams are therefore placed geometrically (early segments long, late
// segments short) so each worker's prime+simulate cost is equal; see
// planSegments. The timing model is not segmented: its pipeline rings and
// data cache are consumed by the very instructions that build them, so a
// "prime" would have to run the full scheduling model anyway, saving
// nothing.

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// primeCostRatio is the measured cost of priming one record relative to
// simulating it (the priming walk skips the direction lookup, the RAS peek
// and all counting but still probes and trains every structure). Only
// seam placement depends on it; correctness does not. It is the median
// prime/simulate ratio over 12 pairs of
//
//	go test -run '^$' -bench PrimeVsSimulate -benchtime 10x -count 6 ./internal/sim
//
// on a shared 2-vCPU x86-64 host: tagless 0.65-0.92 (median 0.86), tagged
// 0.63-1.10 (median 0.67).
const primeCostRatio = 0.70

// minSegmentSpan is the smallest worthwhile segment: below two blocks the
// goroutine and priming overhead dwarfs the simulated span.
const minSegmentSpan = 2 * trace.BlockLen

// Package-wide segment counters for run-level telemetry.
var (
	segmentedRuns      atomic.Int64
	segmentsExecuted   atomic.Int64
	warmupInstructions atomic.Int64
)

// SegmentStats is a snapshot of the process-wide segmented-replay
// counters: runs that took the segmented path, segments executed, and
// total warm-up (priming) instructions replayed before seams.
type SegmentStats struct {
	SegmentedRuns      int64
	SegmentsExecuted   int64
	WarmupInstructions int64
}

// SegmentCounters returns process-wide segmented-replay activity.
func SegmentCounters() SegmentStats {
	return SegmentStats{
		SegmentedRuns:      segmentedRuns.Load(),
		SegmentsExecuted:   segmentsExecuted.Load(),
		WarmupInstructions: warmupInstructions.Load(),
	}
}

// RunAccuracySegmented is RunAccuracy with the capture split into up to
// `segments` concurrently simulated segments.
func RunAccuracySegmented(factory trace.Factory, budget int64, segments int, cfg Config) AccuracyResult {
	return RunAccuracySegmentedCtx(context.Background(), factory, budget, segments, cfg)
}

// RunAccuracySegmentedCtx runs the accuracy model over factory's first
// budget instructions using up to `segments` concurrent workers, joining
// their results in order. The merged result is byte-identical to
// RunAccuracyCtx over the same inputs. Runs that cannot be segmented
// without observable differences fall back to the plain path untouched:
// telemetry collection (events carry stream-order clocks), periodic
// flushes (Reset is a global stream position effect), non-batched
// factories, and captures too small to split.
func RunAccuracySegmentedCtx(ctx context.Context, factory trace.Factory, budget int64, segments int, cfg Config) AccuracyResult {
	bs, ok := blocksFor(factory)
	if !ok || segments <= 1 || cfg.Telemetry != nil {
		return RunAccuracyCtx(ctx, factory, budget, cfg)
	}
	limit := budget
	if limit < 0 {
		limit = 0
	}
	effN := limit
	if clean := bs.CleanLen(); clean < effN {
		effN = clean
	}
	seams := planSegments(effN, segments)
	if len(seams) < 3 {
		return RunAccuracyCtx(ctx, factory, budget, cfg)
	}

	segmentedRuns.Add(1)
	nseg := len(seams) - 1
	segmentsExecuted.Add(int64(nseg))
	results := make([]AccuracyResult, nseg)
	var wg sync.WaitGroup
	for k := 0; k < nseg; k++ {
		start, end := seams[k], seams[k+1]
		if k == nseg-1 {
			// The last segment carries the caller's full budget so the
			// kernel's tail check (budget reaching past the clean prefix)
			// fires exactly as it does on the streaming path.
			end = limit
		}
		warmupInstructions.Add(start)
		wg.Add(1)
		go func(k int, start, end int64) {
			defer wg.Done()
			results[k] = runSegment(ctx, bs, start, end, cfg)
		}(k, start, end)
	}
	wg.Wait()
	return mergeSegments(results)
}

// planSegments places K-1 seams over [0, effN) so that every worker's
// prime-plus-simulate cost is equal. Worker k primes [0, s_k) at
// primeCostRatio per record and simulates [s_k, s_k+1) at unit cost;
// balancing gives the geometric recurrence s_k+1 = β·s_k + C with
// β = 1-primeCostRatio and C = effN·(1-β)/(1-β^K). Seams are rounded
// down to block boundaries (the kernel seeks by whole blocks) and
// degenerate segments are dropped. The returned boundaries start at 0 and
// end at effN; fewer than three boundaries means segmentation is not
// worth it for this capture.
func planSegments(effN int64, segments int) []int64 {
	if maxSeg := int(effN / minSegmentSpan); segments > maxSeg {
		segments = maxSeg
	}
	if segments < 2 {
		return nil
	}
	const beta = 1 - primeCostRatio
	// C = effN·(1-β)/(1-β^K)
	betaK := 1.0
	for i := 0; i < segments; i++ {
		betaK *= beta
	}
	c := float64(effN) * (1 - beta) / (1 - betaK)
	seams := make([]int64, 0, segments+1)
	seams = append(seams, 0)
	s := 0.0
	for k := 1; k < segments; k++ {
		s = beta*s + c
		seam := (int64(s) / trace.BlockLen) * trace.BlockLen
		if prev := seams[len(seams)-1]; seam < prev+minSegmentSpan {
			continue
		}
		if seam > effN-minSegmentSpan {
			break
		}
		seams = append(seams, seam)
	}
	return append(seams, effN)
}

// mergeSegments joins per-segment results in order, stopping at the
// first segment that ended early (cancellation or a corrupt tail): its
// partial counts are included, later segments are discarded, mirroring
// how far a streaming run would have progressed.
func mergeSegments(results []AccuracyResult) AccuracyResult {
	var merged AccuracyResult
	for _, res := range results {
		merged.Instructions += res.Instructions
		merged.Branches += res.Branches
		merged.TCCovered += res.TCCovered
		merged.Conditional.Add(res.Conditional)
		merged.Direct.Add(res.Direct)
		merged.Returns.Add(res.Returns)
		merged.Indirect.Add(res.Indirect)
		merged.Overall.Add(res.Overall)
		if res.Err != nil {
			merged.Err = res.Err
			break
		}
	}
	return merged
}

// runSegment builds a fresh one-member gang, primes it over [0, start) and
// simulates [start, end) — two walks of the same kernel, the first with
// counting off.
func runSegment(ctx context.Context, bs trace.BlockSource, start, end int64, cfg Config) AccuracyResult {
	g := soloGang(cfg)
	if start > 0 {
		if err := g.run(ctx, span{bs: bs, end: start, prime: true})[0].Err; err != nil {
			return AccuracyResult{Err: err}
		}
	}
	return g.run(ctx, span{bs: bs, start: start, end: end})[0]
}
