package sim

// Segment-parallel accuracy replay: one capture's block stream is split
// into K segments simulated concurrently inside a single pass of Run —
// one member or a fused gang. Every predictor structure (BTB, RAS,
// direction predictor, history register, target cache) is a
// deterministic function of the branch stream consumed so far, so a
// worker that first *primes*
// its gang over the full prefix [0, seam) — performing exactly the state
// mutations the counted walk would, flushes included, but accumulating
// no results — and then simulates [seam, next) produces byte-identical
// per-record outcomes to the streaming run. Results join per member in
// segment order; TestSegmentedMatchesStreaming pins the equivalence
// across segment counts, seam positions, flush intervals and predictor
// configurations, for one member and for a mixed gang.
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
// counters: passes (a solo run or a fused gang) that took the segmented
// path, segments executed, and total warm-up (priming) instructions
// replayed before seams.
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

// runSegmented simulates the gang pts over sp, split into up to
// `segments` concurrent segments when that is exact and worthwhile, and
// in one pass otherwise. A segmented gang counts as one segmented run.
func runSegmented(ctx context.Context, sp span, segments int, pts []GangPoint) []AccuracyResult {
	var seams []int64
	if segments > 1 && !collectsTelemetry(pts) {
		seams = planSegments(min(max(sp.end, 0), sp.bs.Len()), segments)
	}
	if len(seams) < 3 {
		g := newGang(pts)
		results := [][]AccuracyResult{g.run(ctx, sp)}
		deliverBits(pts, []*gang{g}, results)
		return results[0]
	}

	segmentedRuns.Add(1)
	nseg := len(seams) - 1
	segmentsExecuted.Add(int64(nseg))
	results := make([][]AccuracyResult, nseg)
	gangs := make([]*gang, nseg)
	var wg sync.WaitGroup
	for k := 0; k < nseg; k++ {
		seg := sp
		seg.start, seg.end = seams[k], seams[k+1]
		warmupInstructions.Add(seg.start)
		wg.Add(1)
		go func(k int, seg span) {
			defer wg.Done()
			results[k], gangs[k] = runSegment(ctx, seg, pts)
		}(k, seg)
	}
	wg.Wait()
	deliverBits(pts, gangs, results)
	return mergeSegments(results)
}

// deliverBits hands every member that asked for mispredict bits its
// bits joined over the segments' gangs in order, each segment's branch
// ordinals offset by the branches before it, up to and including the
// first segment that ended early — the span mergeSegments counts.
func deliverBits(pts []GangPoint, gangs []*gang, results [][]AccuracyResult) {
	for mi, pt := range pts {
		if pt.Mispredicts == nil {
			continue
		}
		var total int64
		for k := range gangs {
			total += results[k][mi].Branches
			if results[k][mi].Err != nil {
				break
			}
		}
		out := make(BranchBits, (total+63)/64)
		var off int64
		for k, g := range gangs {
			g.shared.each(func(b int64) { out.Set(off + b) })
			own, consulted := g.members[mi].bits, int64(0)
			g.mask.each(func(b int64) {
				if own.Has(consulted) {
					out.Set(off + b)
				}
				consulted++
			})
			off += results[k][mi].Branches
			if results[k][mi].Err != nil {
				break
			}
		}
		*pt.Mispredicts = out
	}
}

// collectsTelemetry reports whether any member carries a collector.
func collectsTelemetry(pts []GangPoint) bool {
	for _, pt := range pts {
		if pt.Config.Telemetry != nil {
			return true
		}
	}
	return false
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

// mergeSegments joins each member's per-segment results in order,
// stopping at the first segment that ended early (cancellation or a
// damaged block): its partial counts are included, later segments are
// discarded, mirroring how far a streaming run would have progressed.
func mergeSegments(results [][]AccuracyResult) []AccuracyResult {
	merged := make([]AccuracyResult, len(results[0]))
	for mi := range merged {
		m := &merged[mi]
		for _, seg := range results {
			res := seg[mi]
			m.Instructions += res.Instructions
			m.Branches += res.Branches
			m.TCCovered += res.TCCovered
			m.Conditional.Add(res.Conditional)
			m.Direct.Add(res.Direct)
			m.Returns.Add(res.Returns)
			m.Indirect.Add(res.Indirect)
			m.Overall.Add(res.Overall)
			if res.Err != nil {
				m.Err = res.Err
				break
			}
		}
	}
	return merged
}

// runSegment builds a fresh gang of pts, primes it over [0, sp.start) and
// simulates sp — two walks of the same kernel, the first with counting
// off. Flushes fall at absolute instruction indices in both walks, so a
// primed gang holds exactly the state the streaming run has at the seam.
// It returns the gang too, holding the segment's mispredict bits.
func runSegment(ctx context.Context, sp span, pts []GangPoint) ([]AccuracyResult, *gang) {
	g := newGang(pts)
	if sp.start > 0 {
		prime := sp
		prime.start, prime.end, prime.prime = 0, sp.start, true
		if err := g.run(ctx, prime)[0].Err; err != nil {
			out := make([]AccuracyResult, len(pts))
			for i := range out {
				out[i].Err = err
			}
			return out, g
		}
	}
	return g.run(ctx, sp), g
}
