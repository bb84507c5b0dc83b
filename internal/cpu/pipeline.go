package cpu

// Fused timing passes. In the fast model the predictor trains on
// committed state in trace order and only each branch's mispredict bit
// feeds back into fetch; the data cache sees every load and store in
// trace order and never the predictor. A timing run over a capture
// therefore factors exactly into three passes:
//
//   - a predictor pass, recording one mispredict bit per branch record
//     (sim.BranchBits). RunReplayCtx runs the machine's own sim.Engine;
//     the experiment suite makes each timing run a member of one of sim's
//     fused gangs, so the whole front end runs once per workload;
//   - a data-cache pass (DCacheMisses), recording one miss bit per
//     record. It is a pure function of the capture and the cache
//     geometry, so machines that share a geometry share one;
//   - the pipeline pass (RunPipeline): RunCtx's scheduling model line for
//     line, reading the two bit sets where RunCtx asks the engine and
//     the cache.
//
// Telemetry: the predictor pass cannot know resolve cycles, so it stamps
// its events with instruction numbers (1-based, as accuracy runs do). The
// pipeline restamps the retained events with their branches' resolve
// cycles, which is the clock RunCtx stamps. TestRunReplayMatchesCursor
// and TestFusedTimingMatchesStreaming pin every Result field and the
// restamped collector against RunCtx.

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Misses is a capture's data-cache outcome under one cache geometry: bit
// i is set when record i is a load or store that misses.
type Misses struct {
	bytes, ways, line int   // the geometry
	n                 int64 // records covered
	bits              []uint64
}

// DCacheMisses runs the loads and stores of bs's first n records through
// cfg's data cache in trace order. On error the result covers the
// records before the failure.
func DCacheMisses(ctx context.Context, cfg Config, bs trace.BlockSource, n int64) (*Misses, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n = min(max(n, 0), bs.Len())
	ms := &Misses{bytes: cfg.DCacheBytes, ways: cfg.DCacheWays, line: cfg.DCacheLine, bits: make([]uint64, (n+63)/64)}
	dcache, shift := newDCache(cfg), lineShift(cfg)
	for bi := 0; ms.n < n; bi++ {
		if err := ctx.Err(); err != nil {
			return ms, err
		}
		blk, err := bs.BlockAt(bi)
		if err != nil {
			return ms, err
		}
		m := min(int64(blk.Len()), n-ms.n)
		for i, mb := range blk.Meta[:m] {
			if op := trace.OpClass(mb >> trace.MetaOpShift & trace.MetaOpMask); op != trace.OpLoad && op != trace.OpStore {
				continue
			}
			set, tag := dcache.IndexOf(blk.Addr[i] >> shift)
			if _, hit := dcache.Lookup(set, tag); !hit {
				dcache.Insert(set, tag)
				idx := ms.n + int64(i)
				ms.bits[idx>>6] |= 1 << (idx & 63)
			}
		}
		ms.n += m
	}
	return ms, nil
}

// covers reports whether ms holds n records' outcomes for cfg's cache.
func (ms *Misses) covers(cfg Config, n int64) bool {
	return ms != nil && ms.n >= n &&
		ms.bytes == cfg.DCacheBytes && ms.ways == cfg.DCacheWays && ms.line == cfg.DCacheLine
}

// Pass is a predictor pass over a capture, as the pipeline reads it.
type Pass struct {
	// Instructions is the number of records the pass covered, and Err
	// why it stopped early (nil when it reached its budget). The
	// pipeline times those records and reports Err.
	Instructions int64
	Err          error
	// Mispredicts holds one bit per branch record, set where the pass
	// mispredicted.
	Mispredicts sim.BranchBits
	// Tel, when non-nil, is the collector the pass filled, its events
	// stamped with instruction numbers; the pipeline restamps the
	// retained ones with their branches' resolve cycles.
	Tel *telemetry.Collector
}

// RunReplayCtx is RunCtx over a capture's batches — a memoized Replay or
// an out-of-core Store — and returns the same Result: the machine's
// engine predicts every branch of the first budget records in trace
// order, the records' loads and stores run through the data cache, and
// RunPipeline times them. It may be called once per Machine.
func (m *Machine) RunReplayCtx(ctx context.Context, bs trace.BlockSource, budget int64) Result {
	if m.err != nil {
		return Result{Err: m.err}
	}
	pass := predict(ctx, m.engine, bs, budget)
	misses, err := DCacheMisses(ctx, m.cfg, bs, pass.Instructions)
	if err != nil {
		return Result{Err: err}
	}
	return RunPipeline(ctx, m.cfg, bs, misses, pass)
}

// predict is the reference predictor pass: e predicts and resolves every
// branch of bs's first budget records in trace order.
func predict(ctx context.Context, e *sim.Engine, bs trace.BlockSource, budget int64) Pass {
	pass := Pass{Tel: e.Tel}
	src := trace.NewLimit(bs.Open(), budget)
	var r trace.Record
	var br int64
	for src.Next(&r) {
		if pass.Instructions&ctxCheckMask == ctxCheckMask {
			if err := ctx.Err(); err != nil {
				pass.Err = err
				return pass
			}
		}
		pass.Instructions++
		if !r.Class.IsBranch() {
			continue
		}
		p := e.Predict(&r)
		if !p.Correct(&r) {
			pass.Mispredicts = pass.Mispredicts.Set(br)
		}
		br++
		e.Tel.SetClock(pass.Instructions)
		e.Resolve(&r, p)
	}
	pass.Err = trace.SourceErr(src)
	return pass
}

// RunPipeline times the first pass.Instructions records of bs on machine
// cfg: RunCtx's scheduling model, taking each branch's outcome from the
// pass's mispredict bits and each load's and store's from misses, which
// must cover those records under cfg's cache geometry. Every Result field
// equals RunCtx's over the same records with the predictor the pass ran,
// and the pass's retained telemetry events end up stamped with resolve
// cycles, as RunCtx stamps them.
func RunPipeline(ctx context.Context, cfg Config, bs trace.BlockSource, misses *Misses, pass Pass) Result {
	if err := cfg.Validate(); err != nil {
		return Result{Err: err}
	}
	n := min(max(pass.Instructions, 0), bs.Len())
	if !misses.covers(cfg, n) {
		return Result{Err: fmt.Errorf("cpu: the data-cache miss bits do not cover %d records of a %d-byte %d-way cache with %d-byte lines",
			n, cfg.DCacheBytes, cfg.DCacheWays, cfg.DCacheLine)}
	}
	var res Result

	var (
		fetchCycle   int64                       // cycle the next instruction is fetched
		fetchedThis  int                         // instructions fetched in fetchCycle
		lastRetire   int64                       // retire cycle of the previous instruction
		retiredThis  int                         // instructions retired in lastRetire
		windowRetire = make([]int64, cfg.Window) // ring: retire cycle per slot
		idx, br      int64                       // record and branch ordinals
		// regReady has a slot per possible register byte, so no index
		// needs a bounds check. A write to register 0 (no destination) is
		// undone at once, so its slot stays 0 and reading it never delays
		// an issue cycle, which is never negative: no operand needs a
		// zero test.
		regReady [256]int64
		// Functional-unit occupancy ring, as in fuRing: entries are tagged
		// with their cycle and lazily reset.
		fuCycle [fuRingLen]int64
		fuCount [fuRingLen]int32
	)
	width, depth, memLat, lats := cfg.Width, int64(cfg.FrontEndDepth), cfg.MemLatency, cfg.Latencies

	// The window ring is indexed idx mod Window; every shipped geometry is
	// a power of two, indexed with a mask (winMask < 0 falls back to mod).
	winMask := int64(-1)
	if cfg.Window&(cfg.Window-1) == 0 {
		winMask = int64(cfg.Window - 1)
	}
	winMod := int64(cfg.Window)

	missBits, mispredicts := misses.bits, pass.Mispredicts
	// The pass's retained events, oldest first, wait for the resolve
	// cycles of the records they were stamped at.
	stamps := pass.Tel.Clocks()
	cycles := make([]int64, 0, len(stamps))

	// ctx is polled once per block.
	for bi := 0; idx < n; bi++ {
		if err := ctx.Err(); err != nil {
			res.Err = err
			break
		}
		blk, err := bs.BlockAt(bi)
		if err != nil {
			res.Err = err
			break
		}
		meta := blk.Meta
		m := len(meta)
		if rem := n - idx; int64(m) > rem {
			m = int(rem)
		}
		// Reslice every column to the iteration length once: the i < m
		// bound then proves each index in range, eliding per-access bounds
		// checks and slice-header reloads.
		meta = meta[:m]
		dsts := blk.Dst[:m]
		src1s := blk.Src1[:m]
		src2s := blk.Src2[:m]
		for i := 0; i < m; i++ {
			mb := meta[i]
			op := trace.OpClass(mb >> trace.MetaOpShift & trace.MetaOpMask)
			var winSlot int64
			if winMask >= 0 {
				winSlot = idx & winMask
			} else {
				winSlot = idx % winMod
			}

			// Fetch: width and window constraints.
			if fetchedThis >= width {
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
			issue := max(fetched+depth, regReady[src1s[i]], regReady[src2s[i]])
			fi := issue & (fuRingLen - 1)
			if fuCycle[fi] != issue {
				fuCycle[fi] = issue
				fuCount[fi] = 0
			}
			for int(fuCount[fi]) >= width {
				issue++
				fi = issue & (fuRingLen - 1)
				if fuCycle[fi] != issue {
					fuCycle[fi] = issue
					fuCount[fi] = 0
				}
			}
			fuCount[fi]++

			// Execute: a load that misses waits for memory.
			lat := lats[op]
			if op == trace.OpLoad || op == trace.OpStore {
				res.DCacheAccesses++
				if missBits[idx>>6]>>(idx&63)&1 != 0 {
					res.DCacheMisses++
					if op == trace.OpLoad {
						lat += memLat
					}
				}
			}
			complete := issue + lat
			regReady[dsts[i]] = complete
			regReady[0] = 0

			// Branch outcome and checkpoint repair.
			if cls := trace.Class(mb & trace.MetaClassMask); cls != trace.ClassOther {
				res.Branches++
				indirect := cls == trace.ClassIndJump || cls == trace.ClassIndCall
				if indirect {
					res.IndirectCount++
				}
				if mispredicts.Has(br) {
					res.Mispredicts++
					switch {
					case indirect:
						res.IndirectMispredicts++
						// Only mispredicted indirect jumps log events.
						if k := len(cycles); k < len(stamps) && stamps[k] == idx+1 {
							cycles = append(cycles, complete)
						}
					case cls == trace.ClassCondDirect:
						res.CondMispredicts++
					case cls == trace.ClassReturn:
						res.ReturnMispredicts++
					}
					// Checkpoint repair: correct-path fetch resumes the
					// cycle after the branch resolves.
					if complete+1 > fetchCycle {
						res.MispredictStallCycles += complete + 1 - fetchCycle
						fetchCycle = complete + 1
						fetchedThis = 0
					}
				} else if mb&trace.MetaTaken != 0 {
					// A predicted-taken branch ends the fetch group.
					fetchedThis = width
				}
				br++
			}

			// Retire: in order, Width per cycle.
			retire := max(complete, lastRetire)
			if retire == lastRetire {
				if retiredThis >= width {
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

			idx++
		}
	}

	pass.Tel.Restamp(cycles)
	res.Instructions = idx
	res.Cycles = lastRetire + 1
	if res.Err == nil {
		res.Err = pass.Err
	}
	return res
}
