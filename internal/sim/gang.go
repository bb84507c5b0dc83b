package sim

import (
	"context"
	"errors"
	"fmt"
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
// What makes fusion sound: the front-end structures (BTB, return address
// stack, direction predictor) and the branch-history registers train
// purely on the resolved record stream, never on prediction outcomes, so
// two runs differing only in one of them hold bit-identical state in all
// the others at every instruction. A gang therefore shares
//
//   - one block iteration: record fields (pc/target/class byte) are read
//     once per block for the whole gang;
//   - one direction predictor: every member must carry the same
//     direction-predictor config;
//   - one BTB and RAS: the members that carry a target cache or record
//     mispredict bits must agree on the BTB and RAS depth too (the
//     sweep's target-cache families all use the paper's baseline front
//     end, and the bench groups an experiment's runs by front end), and
//     its probe, direction prediction and training run once. BTB-only
//     members may differ in two ways:
//       - Front-end variants. Members on the first member's BTB geometry
//         that differ from its front end only in update strategy or RAS
//         depth ride its walk, after every member on its exact front end
//         (variantsFrom). That is exact. A BTB's tags, valid bits and LRU
//         order evolve alike under both strategies: a probe hit refreshes
//         its line, and a taken branch refreshes or allocates one whatever
//         the strategy. Only a line's target and 2-bit counter differ, and
//         a prediction reads them only at an indirect-jump entry. The RAS
//         depth changes only the predictions of return entries. So the
//         walk keeps one tag array, a payload per other strategy that
//         follows its lines (btb.Payloads) and a RAS per other depth, and
//         counts a variant apart only at branches whose BTB entry is an
//         indirect jump or a return; every other prediction is the walk's.
//       - A BTB gang: BTB-only members whose BTBs differ otherwise, as
//         the geometries of the sweep's btb family do, all on one RAS
//         depth. Each member gets its
//         own BTB, which predicts from the shared direction predictor's
//         and RAS's verdicts; except that members whose BTB never evicts
//         over the span (it holds every taken branch's PC) predict alike
//         per update strategy, so they run on one BTB per strategy
//         (memberBTBs);
//   - per-key history registers: members naming the same HistShare key
//     read one register, the deepest of theirs, each member its own low
//     bits of it — exact because a pattern or path history's n-bit value
//     is the low n bits of the same history at any greater depth — so the
//     register is computed and trained once.
//
// Per member there remains only the target cache itself (a BTB-only
// member has none and reads the BTB's target; in a BTB gang, the
// member's BTB, unless it runs on another's; a variant reads its
// strategy's payload and its depth's RAS) and its optional telemetry
// collector — flat tables allocated per member, with the member
// bookkeeping (history index, divergence counters) laid out contiguously
// in one slice — touched only on records whose prediction or update
// actually consults it: indirect jumps and calls, plus the rare record
// whose stale BTB entry misclassifies it as indirect. Everything else is
// accumulated once in shared counters and added into every member's
// result at the end, so the per-record marginal cost of a gang member is
// zero on the ~95% of branches that never touch a target cache. A walk of
// the shared front end can also be kept and replayed by many gangs
// (walk.go).
//
// Equivalence contract: for every member, the AccuracyResult Run returns
// is struct-identical to the streaming reference loop's over the same
// records and Options for that member alone, and its telemetry collector
// ends up deep-equal to that run's.
// TestGangMatchesSolo, TestGangTelemetryMatchesSolo, TestBTBGangMatchesEngine,
// TestVariantsMatchEngine and the sweep package's differential harness
// pin this at gang widths 1, 4 and K across worker counts.

// GangPoint is one member of a fused gang: a full simulation config plus
// an optional history-sharing key.
type GangPoint struct {
	Config Config
	// HistShare, when non-empty, names the member's history register:
	// members with equal keys are guaranteed by the caller to construct
	// history providers of one kind (same path parameters) that differ at
	// most in depth, and share a single register, the deepest; each member
	// reads its own Len() low bits of it. An empty key gives the member a
	// private provider, which is always safe.
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

// RunAccuracyGang is Run over budget instructions, its error a false
// second return. It stays only because benchmark/layers.go calls it.
func RunAccuracyGang(factory trace.Factory, budget int64, pts []GangPoint) ([]AccuracyResult, bool) {
	res, err := Run(context.Background(), factory, Options{Budget: budget}, pts)
	return res, err == nil
}

// fusable reports why pts cannot share one walk, or nil when every
// member has the first's direction predictor and either its variants can
// ride its walk (variantsFrom) or the members form a BTB gang: no member
// carries a target cache and every member has the first's RAS depth.
func fusable(pts []GangPoint) error {
	if len(pts) == 0 {
		return errors.New("sim: a run needs a member")
	}
	first := pts[0].Config
	for i, pt := range pts {
		if pt.Config.Dir != first.Dir {
			return fmt.Errorf("sim: members 0 and %d differ in direction predictor", i)
		}
	}
	if _, ok := variantsFrom(pts); ok {
		return nil
	}
	for i, pt := range pts {
		if pt.Config.RASDepth != first.RASDepth {
			return fmt.Errorf("sim: members 0 and %d differ in RAS depth, and the gang's variants cannot ride its walk", i)
		}
	}
	for _, pt := range pts {
		if pt.Config.NewTargetCache != nil {
			return errors.New("sim: members differ in BTB while one carries a target cache")
		}
	}
	return nil
}

// variantsFrom returns where pts's variants start — at the first member
// whose BTB update strategy or RAS depth is not the first member's, or
// at len(pts) — and whether they can ride the first member's walk: every
// member has its BTB geometry and direction predictor, and every member
// from there on is BTB-only and records no mispredict bits.
func variantsFrom(pts []GangPoint) (int, bool) {
	first := pts[0].Config
	k := len(pts)
	for i, pt := range pts {
		cfg := pt.Config
		if cfg.BTB.Sets != first.BTB.Sets || cfg.BTB.Ways != first.BTB.Ways || cfg.Dir != first.Dir {
			return 0, false
		}
		if k == len(pts) && (cfg.BTB != first.BTB || cfg.RASDepth != first.RASDepth) {
			k = i
		}
		if i >= k && (cfg.NewTargetCache != nil || pt.Mispredicts != nil) {
			return 0, false
		}
	}
	return k, true
}
