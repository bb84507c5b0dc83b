package sim

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Batched accuracy kernel: every accuracy run over a decoded block stream —
// a solo run (a gang of one), a run with periodic flushes, a segment
// worker's priming walk and its simulated span, and a fused sweep gang —
// executes gangKernel below. It differs from the streaming reference loop
// (RunAccuracyWithFlushesCtx over an arbitrary source) in ways none of
// which is observable in the results:
//
//   - Batched iteration. Records come from a trace.BlockSource's column
//     batches — built once per capture process-wide — and non-branch
//     records are skipped with a one-byte class check, never
//     materializing a Record.
//   - Devirtualization. The per-branch Predict/Resolve sequence is
//     inlined here and instantiated per concrete (target cache, history)
//     pair, so the hot path is direct calls on concrete structs instead
//     of interface dispatch through core.TargetCache/history.Provider.
//   - Fusion. K members share one front end and one history register per
//     scheme; see gang.go for why that is exact.
//
// The inlined sequence must mirror Engine.Predict/Engine.Resolve exactly;
// TestKernelMatchesGenericLoop, TestGangMatchesSolo and the bench golden
// report pin the equivalence, and internal/sim's overhead test
// cross-checks the streaming loop against an independently maintained
// copy.

// targetCache is the compile-time constraint for the kernel's target-cache
// parameter: the hot subset of core.TargetCache, plus Reset for flushes.
type targetCache interface {
	Predict(pc, hist uint64) (target uint64, ok bool)
	Update(pc, hist, target uint64)
	Reset()
}

// historySource is the hot subset of history.Provider, plus Reset.
type historySource interface {
	Value(pc uint64) uint64
	Observe(r *trace.Record)
	Reset()
}

// noTC stands in for the BTB-only baseline's missing target cache
// (Config.NewTargetCache == nil), reproducing the nil-interface guards in
// Engine.Predict/Resolve. The baseline has no history provider at all: it
// reads the spare history slot past the providers, which stays 0.
type noTC struct{}

func (noTC) Predict(pc, hist uint64) (uint64, bool) { return 0, false }
func (noTC) Update(pc, hist, target uint64)         {}
func (noTC) CostBits() int                          { return 0 }
func (noTC) Reset()                                 {}

// blocksFor unwraps the batched representation behind a factory: a
// memoized trace.Replay or the out-of-core trace.Store.
func blocksFor(factory trace.Factory) (trace.BlockSource, bool) {
	bs, ok := factory.(trace.BlockSource)
	return bs, ok
}

// gangMember is the per-member state of a kernel run. The slice of these
// is the gang's only per-member allocation besides the target caches
// themselves; counters here record only the records whose outcome
// diverged per member (their prediction consulted the member's target
// cache) — the shared skeleton counters live once in the kernel.
type gangMember struct {
	hist int32                // index into the shared provider table (len for none)
	tel  *telemetry.Collector // nil when the member collects no telemetry

	cond, direct, returns, indirect, overall stats.Counter
	tcCovered                                int64
}

// gang is the instantiated state the kernel runs over: one front end
// shared by every member (its Engine carries no target cache, history or
// collector), and per member a target cache and an index into the shared
// history providers.
type gang struct {
	engine    *Engine
	members   []gangMember
	tcs       []core.TargetCache
	providers []history.Provider
	telemetry bool // some member carries a collector
}

// newGang instantiates pts over the first member's front-end config; the
// caller guarantees every member shares it. A member without a target
// cache (the BTB-only baseline) runs with noTC and no history.
func newGang(pts []GangPoint) *gang {
	front := pts[0].Config
	front.NewTargetCache, front.NewHistory, front.Telemetry = nil, nil, nil
	g := &gang{
		engine:  NewEngine(front),
		members: make([]gangMember, len(pts)),
		tcs:     make([]core.TargetCache, len(pts)),
	}
	shared := make(map[string]int32, len(pts))
	for i, pt := range pts {
		cfg := pt.Config
		m := &g.members[i]
		m.tel = cfg.Telemetry
		g.telemetry = g.telemetry || m.tel != nil
		if cfg.NewTargetCache == nil {
			g.tcs[i] = noTC{}
			m.hist = -1
			continue
		}
		if cfg.NewHistory == nil {
			panic("sim: target cache configured without a history")
		}
		g.tcs[i] = cfg.NewTargetCache()
		if key := pt.HistShare; key != "" {
			if idx, ok := shared[key]; ok {
				m.hist = idx
				continue
			}
			shared[key] = int32(len(g.providers))
		}
		m.hist = int32(len(g.providers))
		g.providers = append(g.providers, cfg.NewHistory())
	}
	for i := range g.members {
		if g.members[i].hist < 0 {
			g.members[i].hist = int32(len(g.providers))
		}
	}
	return g
}

// soloGang is the one-member gang a solo run of cfg executes.
func soloGang(cfg Config) *gang { return newGang([]GangPoint{{Config: cfg}}) }

// span is one kernel walk over records [start, end) of a block stream.
type span struct {
	bs            trace.BlockSource
	start, end    int64
	flushInterval int64 // reset every structure each flushInterval instructions; 0 never
	// prime walks for the state mutations only: no counters, no
	// telemetry, and none of the pure lookups that only feed them.
	prime bool
}

// run executes the kernel over sp at the members' concrete target-cache
// and history types. Solo runs are trivially homogeneous, and grid
// expansion emits sweep points family by family, so gangs mix families
// only at grid boundaries; a heterogeneous gang (or an unlisted type) takes
// the interface-typed instantiation of the same kernel.
func (g *gang) run(ctx context.Context, sp span) []AccuracyResult {
	switch {
	case allOf[noTC](g.tcs):
		return runHist(ctx, sp, g, cast[noTC](g.tcs))
	case allOf[*core.Tagless](g.tcs):
		return runHist(ctx, sp, g, cast[*core.Tagless](g.tcs))
	case allOf[*core.Tagged](g.tcs):
		return runHist(ctx, sp, g, cast[*core.Tagged](g.tcs))
	case allOf[*core.Cascaded](g.tcs):
		return runHist(ctx, sp, g, cast[*core.Cascaded](g.tcs))
	case allOf[*core.ITTAGE](g.tcs):
		return runHist(ctx, sp, g, cast[*core.ITTAGE](g.tcs))
	case allOf[*core.Chooser](g.tcs):
		return runHist(ctx, sp, g, cast[*core.Chooser](g.tcs))
	}
	return runHist(ctx, sp, g, g.tcs)
}

// runHist is run's second half: it instantiates the kernel over the
// providers' concrete type for an already-resolved target-cache type (the
// baseline, with no providers, takes the first arm).
func runHist[TC targetCache](ctx context.Context, sp span, g *gang, tcs []TC) []AccuracyResult {
	if hs, ok := homogeneous[history.PatternProvider](g.providers); ok {
		return gangKernel(ctx, sp, g, tcs, hs)
	}
	if hs, ok := homogeneous[*history.Path](g.providers); ok {
		return gangKernel(ctx, sp, g, tcs, hs)
	}
	return gangKernel(ctx, sp, g, tcs, g.providers)
}

// homogeneous converts the provider slice to its concrete element type
// when every element has it.
func homogeneous[H historySource](providers []history.Provider) ([]H, bool) {
	hs := make([]H, len(providers))
	for i, p := range providers {
		h, ok := p.(H)
		if !ok {
			return nil, false
		}
		hs[i] = h
	}
	return hs, true
}

// allOf reports whether every target cache has concrete type TC.
func allOf[TC targetCache](tcs []core.TargetCache) bool {
	for _, tc := range tcs {
		if _, ok := tc.(TC); !ok {
			return false
		}
	}
	return true
}

// cast converts the target-cache slice to its concrete element type;
// callers check allOf first.
func cast[TC targetCache](tcs []core.TargetCache) []TC {
	out := make([]TC, len(tcs))
	for i, tc := range tcs {
		out[i] = tc.(TC)
	}
	return out
}

// gangKernel is the batched accuracy loop over records [sp.start, sp.end),
// with the per-branch work split into a shared skeleton (run once) and a
// per-member tail (run only on records that consult or train the target
// caches).
// Instruction indices (context polls, flush points, telemetry clocks) are
// absolute trace positions, so a segment's span behaves exactly like the
// same span of a streaming run; each result's Instructions counts only the
// records processed in the span.
func gangKernel[TC targetCache, H historySource](
	ctx context.Context, sp span, g *gang, tcs []TC, hists []H,
) []AccuracyResult {
	var res AccuracyResult // shared skeleton counters
	// sharedInd counts indirect-class records whose prediction never
	// consulted a target cache (BTB miss, not-taken direction, or a stale
	// non-indirect BTB class): their outcome is identical for every
	// member.
	var sharedInd stats.Counter
	bs, members := sp.bs, g.members
	btbT, ras, dir := g.engine.BTB, g.engine.RAS, g.engine.Dir
	count, tel := !sp.prime, !sp.prime && g.telemetry
	phVals := make([]uint64, len(hists)+1) // the last slot is the no-history 0

	// The block layout invariant (block i covers records [i*BlockLen,
	// i*BlockLen+len)) lets the kernel seek straight to the start block.
	effEnd := min(max(sp.end, 0), bs.Len())
	start := min(max(sp.start, 0), effEnd)
	insns := start
	// The record scan stops only at instructions where the walk must poll
	// ctx or flush, tracked as absolute indices (record i of a block is
	// instruction base+i+1), so a non-branch record costs one compare.
	nextPoll := (start/(ctxCheckMask+1) + 1) * (ctxCheckMask + 1)
	nextFlush := int64(math.MaxInt64)
	if fi := sp.flushInterval; fi > 0 {
		nextFlush = (start/fi + 1) * fi
	}
	var r trace.Record

	for bi := int(start / trace.BlockLen); insns < effEnd; bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			return g.results(res, sharedInd, insns-start, err)
		}
		base := int64(bi) * trace.BlockLen
		meta := blk.Meta
		m := len(meta)
		if rem := effEnd - base; int64(m) > rem {
			m = int(rem)
		}
		lo := 0
		if base < insns {
			lo = int(insns - base)
		}
		// Reslice the columns to the iteration length once so i < m
		// proves every access in range (no per-access bounds checks).
		meta = meta[:m]
		pcs := blk.PC[:m]
		tgts := blk.Target[:m]
		addrs := blk.Addr[:m]
		stop := min(nextPoll, nextFlush) - base - 1
		for i := lo; i < m; i++ {
			if int64(i) == stop {
				n := base + int64(i) + 1
				if n == nextPoll {
					nextPoll += ctxCheckMask + 1
					if err := ctx.Err(); err != nil {
						return g.results(res, sharedInd, n-start, err)
					}
				}
				if n == nextFlush {
					nextFlush += sp.flushInterval
					g.engine.Reset()
					for mi := range tcs {
						tcs[mi].Reset()
					}
					for pi := range hists {
						hists[pi].Reset()
					}
				}
				stop = min(nextPoll, nextFlush) - base - 1
			}
			mb := meta[i]
			cls := trace.Class(mb & trace.MetaClassMask)
			if cls == trace.ClassOther {
				continue
			}
			// Lean materialization: only the fields the predictors read
			// (the register operands stay zero; no consumer below looks
			// at them).
			r.PC = pcs[i]
			r.Target = tgts[i]
			r.Addr = addrs[i]
			r.Class = cls
			r.Op = trace.OpClass(mb >> trace.MetaOpShift & trace.MetaOpMask)
			r.Taken = mb&trace.MetaTaken != 0

			// ---- shared fetch skeleton: one BTB probe ----
			entry, bref, hit := btbT.Probe(r.PC)
			indirectCls := cls == trace.ClassIndJump || cls == trace.ClassIndCall
			// perMember: the prediction consults the target cache, so the
			// outcome can differ per member. This keys on the BTB's
			// *detected* class, like Engine.Predict; an indirect class is
			// always predicted taken, so no direction lookup gates it.
			perMember := hit && (entry.Class == trace.ClassIndJump || entry.Class == trace.ClassIndCall)

			if count {
				res.Branches++
			}
			if perMember || indirectCls {
				// Value is pure and providers are not trained until
				// Observe below, so one read per scheme serves every member
				// — the same value a solo run would see.
				for pi := range hists {
					phVals[pi] = hists[pi].Value(r.PC)
				}
				// Each member's lookup and training touch only its own
				// target cache, so one pass does both in Engine order.
				for mi := range members {
					mem := &members[mi]
					ph := phVals[mem.hist]
					if perMember {
						// Priming still looks up every member: a tagged
						// cache's Predict ticks replacement state on a hit.
						pTarget, pFromTC := entry.Target, false
						if tgt, ok := tcs[mi].Predict(r.PC, ph); ok {
							pTarget, pFromTC = tgt, true
						}
						if count {
							correct := r.Taken && pTarget == r.Target
							if indirectCls {
								mem.indirect.Record(correct)
								if pFromTC {
									mem.tcCovered++
								}
								// Accuracy runs have no cycle clock;
								// telemetry events are stamped with the
								// instruction index.
								if mem.tel != nil {
									mem.tel.SetClock(base + int64(i) + 1)
									mem.tel.Indirect(r.PC, ph, pTarget, true, r.Target, correct)
								}
							} else {
								// A stale BTB entry misclassified a direct
								// branch or return as indirect.
								switch cls {
								case trace.ClassCondDirect:
									mem.cond.Record(correct)
								case trace.ClassUncondDirect, trace.ClassCall:
									mem.direct.Record(correct)
								case trace.ClassReturn:
									mem.returns.Record(correct)
								}
							}
							mem.overall.Record(correct)
						}
					}
					if indirectCls {
						tcs[mi].Update(r.PC, ph, r.Target)
					}
				}
			}
			if !perMember && count {
				// No target cache consulted: the prediction — and its
				// correctness — is identical for every member. Count once.
				pTaken := hit
				if hit && entry.Class == trace.ClassCondDirect {
					pTaken = dir.Predict(r.PC)
				}
				var pTarget uint64
				var pHasTarget bool
				if pTaken {
					if entry.Class == trace.ClassReturn {
						if addr, ok := ras.Peek(); ok {
							pTarget, pHasTarget = addr, true
						}
					} else {
						pTarget, pHasTarget = entry.Target, true
					}
				}
				correct := pTaken == r.Taken && (!r.Taken || (pHasTarget && pTarget == r.Target))
				switch cls {
				case trace.ClassCondDirect:
					res.Conditional.Record(correct)
				case trace.ClassUncondDirect, trace.ClassCall:
					res.Direct.Record(correct)
				case trace.ClassReturn:
					res.Returns.Record(correct)
				case trace.ClassIndJump, trace.ClassIndCall:
					sharedInd.Record(correct)
					if tel {
						for mi := range members {
							if mem := &members[mi]; mem.tel != nil {
								mem.tel.SetClock(base + int64(i) + 1)
								mem.tel.Indirect(r.PC, phVals[mem.hist], pTarget, pTaken && pHasTarget, r.Target, correct)
							}
						}
					}
				}
				res.Overall.Record(correct)
			}

			// ---- resolve the shared structures, in Engine.Resolve's
			// order (target caches were trained above) ----
			if cls == trace.ClassCall || cls == trace.ClassIndCall {
				ras.Push(r.FallThrough())
			}
			if cls == trace.ClassReturn {
				ras.Pop()
			}
			if cls == trace.ClassCondDirect {
				dir.Update(r.PC, r.Taken)
			}
			for pi := range hists {
				hists[pi].Observe(&r)
			}
			if hit {
				btbT.UpdateHit(bref, &r)
			} else {
				btbT.Update(&r)
			}
		}
		insns = base + int64(m)
	}
	return g.results(res, sharedInd, insns-start, nil)
}

// results assembles the per-member results: the shared skeleton plus
// each member's divergence counters, every member reporting the same
// instruction count and error a solo run stopped at this record would.
func (g *gang) results(res AccuracyResult, sharedInd stats.Counter, insns int64, err error) []AccuracyResult {
	out := make([]AccuracyResult, len(g.members))
	for mi := range g.members {
		m := &g.members[mi]
		mr := res
		mr.Instructions = insns
		mr.Conditional.Add(m.cond)
		mr.Direct.Add(m.direct)
		mr.Returns.Add(m.returns)
		mr.Indirect = sharedInd
		mr.Indirect.Add(m.indirect)
		mr.Overall.Add(m.overall)
		mr.TCCovered = m.tcCovered
		mr.Err = err
		out[mi] = mr
	}
	return out
}
