package cpu

// Batched timing kernel: RunReplayCtx is RunCtx over a capture's column
// batches. The fetch path iterates structure-of-arrays blocks, reading
// each record's operand and class bytes with plain slice loads instead of
// pulling Records through a cursor, and only branch records materialize a
// Record (for the prediction structures). Like the accuracy kernel in
// internal/sim, the per-branch Predict/Resolve sequence is inlined and
// instantiated per concrete (target cache, history) pair so the hot path
// avoids interface dispatch. Results are identical to RunCtx over
// rep.Open(); TestRunReplayMatchesCursor pins the equivalence.

import (
	"context"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/trace"
)

// targetCache and historySource mirror the constraint interfaces of the
// accuracy kernel: the hot subsets of core.TargetCache and history.Provider.
type targetCache interface {
	Predict(pc, hist uint64) (target uint64, ok bool)
	Update(pc, hist, target uint64)
}

type historySource interface {
	Value(pc uint64) uint64
	Observe(r *trace.Record)
}

// noTC and noHist instantiate the kernel for the BTB-only baseline; their
// no-op methods inline to nothing, reproducing the nil guards in
// Engine.Predict/Resolve.
type noTC struct{}

func (noTC) Predict(pc, hist uint64) (uint64, bool) { return 0, false }
func (noTC) Update(pc, hist, target uint64)         {}

type noHist struct{}

func (noHist) Value(pc uint64) uint64  { return 0 }
func (noHist) Observe(r *trace.Record) {}

// RunReplayCtx simulates up to budget instructions from a capture's
// batches — a memoized Replay or an out-of-core Store. It may be called
// once per Machine.
func (m *Machine) RunReplayCtx(ctx context.Context, bs trace.BlockSource, budget int64) Result {
	switch tc := m.engine.TC.(type) {
	case nil:
		return replayKernel(ctx, m, bs, budget, noTC{}, noHist{})
	case *core.Tagless:
		return replayDispatchHist(ctx, m, bs, budget, tc)
	case *core.Tagged:
		return replayDispatchHist(ctx, m, bs, budget, tc)
	case *core.Cascaded:
		return replayDispatchHist(ctx, m, bs, budget, tc)
	case *core.ITTAGE:
		return replayDispatchHist(ctx, m, bs, budget, tc)
	case *core.Chooser:
		return replayDispatchHist(ctx, m, bs, budget, tc)
	}
	return replayKernel[core.TargetCache, history.Provider](ctx, m, bs, budget, m.engine.TC, m.engine.Hist)
}

// replayDispatchHist instantiates the kernel over the engine's concrete
// history type for an already-resolved target cache.
func replayDispatchHist[TC targetCache](ctx context.Context, m *Machine, bs trace.BlockSource, budget int64, tc TC) Result {
	switch h := m.engine.Hist.(type) {
	case history.PatternProvider:
		return replayKernel(ctx, m, bs, budget, tc, h)
	case *history.Path:
		return replayKernel(ctx, m, bs, budget, tc, h)
	}
	return replayKernel[TC, history.Provider](ctx, m, bs, budget, tc, m.engine.Hist)
}

// replayKernel is the batched, devirtualized timing loop. tc and hist are
// the engine's own target cache and history at their concrete types; the
// BTB, RAS, direction predictor and telemetry collector are read off the
// engine once. The scheduling model is line-for-line the one in RunCtx.
func replayKernel[TC targetCache, H historySource](
	ctx context.Context, m *Machine, bs trace.BlockSource, budget int64, tc TC, hist H,
) Result {
	cfg := m.cfg
	btbT, ras, dir, tel := m.engine.BTB, m.engine.RAS, m.engine.Dir, m.engine.Tel
	dcache, observer := m.dcache, m.observer
	var res Result

	var (
		fetchCycle   int64 // cycle the next instruction is fetched
		fetchedThis  int   // instructions fetched in fetchCycle
		lastRetire   int64 // retire cycle of the previous instruction
		retiredThis  int   // instructions retired in lastRetire
		regReady     [64]int64
		windowRetire = make([]int64, cfg.Window) // ring: retire cycle per slot
		idx          int64
		r            trace.Record
	)

	// Functional-unit occupancy ring, inlined from fuRing: entries are
	// tagged with their cycle and lazily reset (see fuRing.at).
	fuCycle := make([]int64, 8192)
	fuCount := make([]int, 8192)
	fuMask := int64(len(fuCount) - 1)

	// The window ring is indexed idx mod Window; every shipped geometry is
	// a power of two, indexed with a mask (winMask < 0 falls back to mod).
	winMask := int64(-1)
	if cfg.Window&(cfg.Window-1) == 0 {
		winMask = int64(cfg.Window - 1)
	}
	winMod := int64(cfg.Window)

	lineShift := 0
	for 1<<lineShift < cfg.DCacheLine {
		lineShift++
	}

	// Specialized data-cache state, replacing cache.Cache[struct{}] on the
	// hot path. The LRU stream is identical to Cache.Touch: one tick per
	// access, hit refreshes lastUse, miss victimizes the first invalid way
	// else the first minimum-lastUse way. lastUse==0 encodes invalid (the
	// tick pre-increments, so live lines always carry a positive stamp).
	dways := cfg.DCacheWays
	dsets := cfg.DCacheBytes / (cfg.DCacheLine * cfg.DCacheWays)
	dtags := make([]uint64, dsets*dways)
	dlast := make([]int64, dsets*dways)
	var dtick int64

	effEnd := min(max(budget, 0), bs.Len())
	stopped := false
	for bi := 0; idx < effEnd && !stopped; bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			res.Err = err
			break
		}
		meta := blk.Meta
		n := len(meta)
		if rem := effEnd - idx; int64(n) > rem {
			n = int(rem)
		}
		// Reslice every column to the iteration length once: the i < n
		// bound then proves each index in range, eliding per-access bounds
		// checks and slice-header reloads.
		meta = meta[:n]
		pcs := blk.PC[:n]
		tgts := blk.Target[:n]
		addrs := blk.Addr[:n]
		dsts := blk.Dst[:n]
		src1s := blk.Src1[:n]
		src2s := blk.Src2[:n]
		for i := 0; i < n; i++ {
			if idx&ctxCheckMask == ctxCheckMask {
				if err := ctx.Err(); err != nil {
					res.Err = err
					stopped = true
					break
				}
			}
			mb := meta[i]
			op := trace.OpClass(mb >> trace.MetaOpShift & trace.MetaOpMask)
			dst, src1, src2 := dsts[i], src1s[i], src2s[i]
			var winSlot int64
			if winMask >= 0 {
				winSlot = idx & winMask
			} else {
				winSlot = idx % winMod
			}

			// Fetch: width and window constraints.
			if fetchedThis >= cfg.Width {
				fetchCycle++
				fetchedThis = 0
			}
			if oldest := windowRetire[winSlot]; oldest > fetchCycle {
				// The slot's previous occupant retires at `oldest`; we can
				// occupy it the following cycle.
				res.WindowStallCycles += oldest + 1 - fetchCycle
				fetchCycle = oldest + 1
				fetchedThis = 0
			}
			fetched := fetchCycle
			fetchedThis++

			// Issue: operands, then a free functional unit.
			issue := fetched + int64(cfg.FrontEndDepth)
			if src1 != 0 && regReady[src1] > issue {
				issue = regReady[src1]
			}
			if src2 != 0 && regReady[src2] > issue {
				issue = regReady[src2]
			}
			fi := issue & fuMask
			if fuCycle[fi] != issue {
				fuCycle[fi] = issue
				fuCount[fi] = 0
			}
			for fuCount[fi] >= cfg.Width {
				issue++
				fi = issue & fuMask
				if fuCycle[fi] != issue {
					fuCycle[fi] = issue
					fuCount[fi] = 0
				}
			}
			fuCount[fi]++

			// Execute.
			lat := cfg.Latencies[op]
			if op == trace.OpLoad || op == trace.OpStore {
				res.DCacheAccesses++
				set, tag := dcache.IndexOf(addrs[i] >> lineShift)
				dtick++
				base := set * dways
				hit := false
				vic := base
				for w := base; w < base+dways; w++ {
					if dlast[w] != 0 && dtags[w] == tag {
						dlast[w] = dtick
						hit = true
						break
					}
					if dlast[w] < dlast[vic] {
						vic = w
					}
				}
				if !hit {
					res.DCacheMisses++
					dtags[vic] = tag
					dlast[vic] = dtick
					if op == trace.OpLoad {
						lat += cfg.MemLatency
					}
				}
			}
			complete := issue + lat
			if dst != 0 {
				regReady[dst] = complete
			}

			// Branch prediction and checkpoint repair.
			mispredicted := false
			if cls := trace.Class(mb & trace.MetaClassMask); cls != trace.ClassOther {
				res.Branches++
				// Lean materialization: only the fields the predictors
				// read (the register operands stay zero; no consumer
				// below looks at them).
				r.PC = pcs[i]
				r.Target = tgts[i]
				r.Addr = addrs[i]
				r.Class = cls
				r.Op = op
				r.Taken = mb&trace.MetaTaken != 0

				// ---- Engine.Predict, inlined at concrete types ----
				// (Prediction.FromTC is not tracked: the timing model has
				// no coverage counter.) The history value is computed
				// lazily: only indirect jumps consume it, and hist is not
				// mutated until Observe below.
				var pTaken, pHasTarget, phOK bool
				var pTarget, ph uint64
				entry, bref, hit := btbT.Probe(r.PC)
				if hit {
					if entry.Class == trace.ClassCondDirect {
						pTaken = dir.Predict(r.PC)
					} else {
						pTaken = true
					}
					if pTaken {
						switch entry.Class {
						case trace.ClassReturn:
							if addr, ok := ras.Peek(); ok {
								pTarget, pHasTarget = addr, true
							}
						case trace.ClassIndJump, trace.ClassIndCall:
							ph = hist.Value(r.PC)
							phOK = true
							if tgt, ok := tc.Predict(r.PC, ph); ok {
								pTarget, pHasTarget = tgt, true
							} else {
								pTarget, pHasTarget = entry.Target, true
							}
						default:
							pTarget, pHasTarget = entry.Target, true
						}
					}
				}
				correct := pTaken == r.Taken && (!r.Taken || (pHasTarget && pTarget == r.Target))

				// ---- Engine.Resolve, inlined at concrete types ----
				// Telemetry events from timing runs carry the branch's
				// resolve cycle.
				if (cls == trace.ClassIndJump || cls == trace.ClassIndCall) && !phOK {
					ph = hist.Value(r.PC)
				}
				if tel != nil {
					tel.SetClock(complete)
					if cls == trace.ClassIndJump || cls == trace.ClassIndCall {
						tel.Indirect(r.PC, ph, pTarget, pTaken && pHasTarget, r.Target, correct)
					}
				}
				if cls == trace.ClassCall || cls == trace.ClassIndCall {
					ras.Push(r.FallThrough())
				}
				if cls == trace.ClassReturn {
					ras.Pop()
				}
				if cls == trace.ClassCondDirect {
					dir.Update(r.PC, r.Taken)
				}
				if cls == trace.ClassIndJump || cls == trace.ClassIndCall {
					tc.Update(r.PC, ph, r.Target)
				}
				hist.Observe(&r)
				if hit {
					btbT.UpdateHit(bref, &r)
				} else {
					btbT.Update(&r)
				}

				switch cls {
				case trace.ClassIndJump, trace.ClassIndCall:
					res.IndirectCount++
					if !correct {
						res.IndirectMispredicts++
					}
				case trace.ClassCondDirect:
					if !correct {
						res.CondMispredicts++
					}
				case trace.ClassReturn:
					if !correct {
						res.ReturnMispredicts++
					}
				}
				if !correct {
					res.Mispredicts++
					mispredicted = true
					// Checkpoint repair: correct-path fetch resumes the
					// cycle after the branch resolves.
					if complete+1 > fetchCycle {
						res.MispredictStallCycles += complete + 1 - fetchCycle
						fetchCycle = complete + 1
						fetchedThis = 0
					}
				} else if r.Taken {
					// A predicted-taken branch ends the fetch group.
					fetchedThis = cfg.Width
				}
			}

			// Retire: in order, Width per cycle.
			retire := complete
			if retire < lastRetire {
				retire = lastRetire
			}
			if retire == lastRetire {
				if retiredThis >= cfg.Width {
					retire++
					retiredThis = 1
				} else {
					retiredThis++
				}
			} else {
				retiredThis = 1
			}
			lastRetire = retire
			windowRetire[winSlot] = retire

			if observer != nil {
				blk.Record(i, &r)
				observer(TimelineEntry{
					Record:     r,
					Fetch:      fetched,
					Issue:      issue,
					Complete:   complete,
					Retire:     retire,
					Mispredict: mispredicted,
				})
			}

			idx++
		}
	}

	res.Instructions = idx
	res.Cycles = lastRetire + 1
	return res
}
