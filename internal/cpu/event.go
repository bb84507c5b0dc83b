package cpu

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/trace"
)

// EventMachine is a second, structurally explicit implementation of the
// timing model: a cycle-by-cycle simulator with a reorder buffer, an issue
// stage with register scoreboarding and functional-unit arbitration,
// in-order retirement, and checkpoint-repair fetch redirection. It is
// slower than Machine's one-pass approximation and exists to validate it:
// the two models must agree on cycle counts within a small tolerance and
// on every experiment's orderings (see TestModelsAgree).
//
// The cycle loop (runEvent) is one implementation fed by either of two
// front ends. The live one (RunCtx) reads a trace source, asks the
// machine's sim.Engine for each branch and runs each load and store
// through the data cache as it fetches, and can fetch real wrong-path
// instructions. The columnar one (RunEvent) times a clean run — no
// wrong-path fetch — from a capture's columns, a predictor pass's
// mispredict bits and the capture's data-cache miss bits, as RunPipeline
// does for the fast model: a clean run's predictor and data cache see the
// records in trace order whatever the cycle loop does, so the two front
// ends time it alike.
//
// The scoreboard holds, per register, the completion cycle of its latest
// issued writer: an instruction whose nearest older writer of an operand
// has not issued yet reads the ready cycle of whichever writer issued
// last, and may issue before its producer.
type EventMachine struct {
	cfg    Config
	err    error // cfg.Validate(): every run returns it without simulating
	engine *sim.Engine
	dcache *cache.Cache[struct{}]
}

// NewEvent returns an event-driven machine using cfg and engine. An
// invalid cfg (see Config.Validate) yields a machine whose runs report
// the validation error.
func NewEvent(cfg Config, engine *sim.Engine) *EventMachine {
	m := &EventMachine{cfg: cfg, err: cfg.Validate(), engine: engine}
	if m.err == nil {
		m.dcache = newDCache(cfg)
	}
	return m
}

// WrongPathFetcher is the capability the event model needs from a trace
// source to model wrong-path execution (vm.VM and vm.Looping implement
// it): redirect the machine to a mispredicted address, stream real
// speculative instructions from there, and squash.
type WrongPathFetcher interface {
	trace.Source
	StartWrongPath(addr uint64) bool
	EndWrongPath()
}

// robEntry is one in-flight instruction.
type robEntry struct {
	mispredict bool
	wrongPath  bool  // speculative; squashed at redirect, never retired
	dst        uint8 // the scoreboard slot it writes: noReg for none
	src1, src2 uint8
	complete   int64 // completion cycle once issued, unissued before
	lat        int64
	readyAt    int64 // earliest issue cycle (fetch + front-end depth)
}

// The scoreboard has a slot per register byte (regSlots), so no index
// needs a bounds check. Register 0 (no operand) is never written, so its
// slot stays 0 and never delays an issue; an instruction with no
// destination, or on the wrong path, whose results are renamed away,
// writes slot noReg, which no operand reads. An entry's completion cycle
// is noIssue until it issues.
const (
	noReg   = 255
	noIssue = math.MaxInt64
)

// inst is one fetched instruction as a front end hands it to the window,
// packed in a word that travels in a register: a trace meta byte (class,
// op, taken bit), the destination and source registers, and the miss
// and mispredict flags.
type inst uint64

const (
	instMiss       inst = 1 << 32 // a load or store that missed the data cache
	instMispredict inst = 1 << 33 // a correct-path branch its predictor got wrong
)

func makeInst(meta, dst, src1, src2 uint8) inst {
	return inst(meta) | inst(dst)<<8 | inst(src1)<<16 | inst(src2)<<24
}

func (in inst) class() trace.Class { return trace.Class(in & trace.MetaClassMask) }
func (in inst) op() trace.OpClass  { return trace.OpClass(in >> trace.MetaOpShift & trace.MetaOpMask) }
func (in inst) taken() bool        { return in&trace.MetaTaken != 0 }
func (in inst) dst() uint8         { return uint8(in >> 8) }
func (in inst) src1() uint8        { return uint8(in >> 16) }
func (in inst) src2() uint8        { return uint8(in >> 24) }
func (in inst) miss() bool         { return in&instMiss != 0 }
func (in inst) mispredict() bool   { return in&instMispredict != 0 }

// frontEnd is the event loop's fetch stage.
type frontEnd interface {
	// fetch returns the next instruction, fetched in cycle: from the
	// wrong path when wrong is set, else from the correct path. It
	// reports false when that path has nothing more to fetch.
	fetch(cycle int64, wrong bool) (inst, bool)
	// squash ends the wrong path at a redirect.
	squash()
}

// Run simulates up to budget instructions and returns the timing result.
func (m *EventMachine) Run(src trace.Source, budget int64) Result {
	return m.RunCtx(context.Background(), src, budget)
}

// RunCtx is Run under a context: the cycle loop polls ctx periodically and
// stops early with Err set to ctx.Err() when cancelled, returning the
// partial result accumulated so far.
func (m *EventMachine) RunCtx(ctx context.Context, src trace.Source, budget int64) Result {
	if m.err != nil {
		return Result{Err: m.err}
	}
	fe := &liveFront{src: src, engine: m.engine, dcache: m.dcache, shift: lineShift(m.cfg)}
	// Wrong-path support: only when configured and the source can do it.
	if m.cfg.ModelWrongPath {
		fe.wf, _ = src.(WrongPathFetcher)
	}
	res := runEvent(ctx, m.cfg, budget, fe)
	if res.Err == nil {
		res.Err = trace.SourceErr(src)
	}
	return res
}

// RunEvent times the first pass.Instructions records of bs on the
// event-driven model cfg, with no wrong-path fetch: each branch's outcome
// comes from the pass's mispredict bits and each load's and store's from
// misses, which must cover those records under cfg's cache geometry.
// Every Result field equals RunCtx's over the same records with the
// predictor the pass ran and cfg.ModelWrongPath unset, and the pass's
// retained telemetry events end up stamped with their branches' fetch
// cycles, as RunCtx stamps them. A failure to read bs, or a cancelled
// ctx, stops the run with that error; otherwise it reports the pass's
// own Err.
func RunEvent(ctx context.Context, cfg Config, bs trace.BlockSource, misses *Misses, pass Pass) Result {
	if err := cfg.Validate(); err != nil {
		return Result{Err: err}
	}
	n := min(max(pass.Instructions, 0), bs.Len())
	if err := misses.check(cfg, n); err != nil {
		return Result{Err: err}
	}
	stamps := pass.Tel.Clocks()
	fe := &columnFront{bs: bs, bits: pass.Mispredicts, missBits: misses.bits,
		stamps: stamps, cycles: make([]int64, 0, len(stamps))}
	res := runEvent(ctx, cfg, n, fe)
	pass.Tel.Restamp(fe.cycles)
	switch {
	case res.Err != nil:
	case fe.err != nil:
		res.Err = fe.err
	default:
		res.Err = pass.Err
	}
	return res
}

// runEvent is the cycle loop: it times up to budget correct-path
// instructions from fe on machine cfg, which must be valid.
func runEvent(ctx context.Context, cfg Config, budget int64, fe frontEnd) Result {
	var res Result
	deadlockAfter := cfg.DeadlockCycles
	if deadlockAfter <= 0 {
		deadlockAfter = DefaultDeadlockCycles
	}

	rob := make([]robEntry, cfg.Window)
	head, tail, occupancy := 0, 0, 0
	// waiting lists the ROB slots of the unissued entries, oldest first:
	// the issue scan visits only these.
	waiting := make([]int32, 0, cfg.Window)

	var (
		cycle        int64
		regReady     [regSlots]int64
		fetchStalled bool  // a mispredicted branch is in flight
		redirectAt   int64 = -1
		done         bool
		correctOcc   int // non-speculative entries in flight
	)

	// Deadlock guard: the simulation must retire something regularly.
	lastProgress := int64(0)

	for res.Instructions < budget || occupancy > 0 {
		// Retire up to Width completed instructions from the head.
		for retired := 0; retired < cfg.Width && occupancy > 0; retired++ {
			e := &rob[head]
			if e.complete > cycle || e.wrongPath {
				break
			}
			head++
			if head == cfg.Window {
				head = 0
			}
			occupancy--
			correctOcc--
			res.Instructions++
			lastProgress = cycle
		}

		// Issue: oldest-first, bounded by Width functional units. The scan
		// ends at the first unissued entry still in the front end: entries
		// enter in fetch order, so readyAt never falls toward the tail, and
		// no younger entry can issue this cycle. It keeps the entries that
		// stay waiting in order.
		issued, kept, i := 0, 0, 0
		for ; i < len(waiting) && issued < cfg.Width; i++ {
			slot := waiting[i]
			e := &rob[slot]
			if e.readyAt > cycle {
				break
			}
			if max(regReady[e.src1], regReady[e.src2]) > cycle {
				waiting[kept] = slot
				kept++
				continue
			}
			e.complete = cycle + e.lat
			regReady[e.dst] = e.complete
			if e.mispredict {
				redirectAt = e.complete + 1
			}
			issued++
		}
		if issued > 0 {
			kept += copy(waiting[kept:], waiting[i:])
			waiting = waiting[:kept]
		}

		// Redirect: once the mispredicted branch has resolved, squash the
		// wrong path and resume fetch at the (known-correct) next trace
		// instruction.
		if fetchStalled && redirectAt >= 0 && cycle >= redirectAt {
			fetchStalled = false
			redirectAt = -1
			fe.squash()
			for occupancy > 0 {
				prev := tail - 1
				if prev < 0 {
					prev = cfg.Window - 1
				}
				if !rob[prev].wrongPath {
					break
				}
				tail = prev
				occupancy--
			}
			// The wrong path is the youngest run of entries, in the ROB
			// and among the waiting ones alike.
			for len(waiting) > 0 && rob[waiting[len(waiting)-1]].wrongPath {
				waiting = waiting[:len(waiting)-1]
			}
		}

		// Fetch up to Width instructions: from the correct path normally,
		// or from the wrong path while a misprediction is pending.
		for fetched := 0; fetched < cfg.Width && !done; fetched++ {
			wrongFetch := fetchStalled
			if !wrongFetch && res.Instructions+int64(correctOcc) >= budget {
				break
			}
			if occupancy >= cfg.Window {
				break
			}
			in, ok := fe.fetch(cycle, wrongFetch)
			if !ok {
				// The correct path ending ends the run; the wrong path
				// ending only stalls fetch until the redirect.
				done = !wrongFetch
				break
			}
			op, class, mispredict := in.op(), in.class(), in.mispredict()
			e := &rob[tail]
			e.mispredict, e.wrongPath = mispredict, wrongFetch
			e.dst, e.src1, e.src2 = in.dst(), in.src1(), in.src2()
			if e.dst == 0 || wrongFetch {
				e.dst = noReg
			}
			e.complete, e.lat, e.readyAt = noIssue, cfg.Latencies[op], cycle+int64(cfg.FrontEndDepth)
			waiting = append(waiting, int32(tail))
			if op == trace.OpLoad || op == trace.OpStore {
				if in.miss() {
					res.DCacheMisses++
					if op == trace.OpLoad {
						e.lat += cfg.MemLatency
					}
				}
				res.DCacheAccesses++
			}
			// A taken or mispredicted branch ends the fetch group;
			// wrong-path branches follow the speculative machine's own
			// outcomes.
			endGroup := class.IsBranch() && (in.taken() || mispredict)
			if class.IsBranch() && !wrongFetch {
				res.Branches++
				if class.IsTargetCachePredicted() {
					res.IndirectCount++
				}
				if mispredict {
					res.Mispredicts++
					switch class {
					case trace.ClassIndJump, trace.ClassIndCall:
						res.IndirectMispredicts++
					case trace.ClassCondDirect:
						res.CondMispredicts++
					case trace.ClassReturn:
						res.ReturnMispredicts++
					}
					fetchStalled = true
					redirectAt = -1 // resolved when the branch issues
				}
			}
			tail++
			if tail == cfg.Window {
				tail = 0
			}
			occupancy++
			if !wrongFetch {
				correctOcc++
			}
			if endGroup {
				break
			}
		}

		if done && occupancy == 0 {
			break
		}
		cycle++
		if cycle&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				res.Err = err
				break
			}
		}
		if cycle-lastProgress > deadlockAfter {
			// A liveness failure is a model bug, not a crash: report it as
			// an error with enough machine state to debug, keeping the
			// partial counts.
			res.Err = fmt.Errorf("cpu: event model deadlock at cycle %d (occupancy %d, %d retired, window %d)",
				cycle, occupancy, res.Instructions, cfg.Window)
			break
		}
	}

	res.Cycles = cycle
	return res
}

// liveFront is RunCtx's front end: a trace source, the machine's
// predictor and data cache, and, when the source can fetch it, the live
// wrong path.
type liveFront struct {
	src    trace.Source
	engine *sim.Engine
	dcache *cache.Cache[struct{}]
	shift  int
	wf     WrongPathFetcher // nil unless modelling the wrong path
	// wrongActive is set while wrong-path records still stream,
	// wrongStarted while an EndWrongPath is owed at the redirect.
	wrongActive, wrongStarted bool
	r                         trace.Record
}

func (f *liveFront) fetch(cycle int64, wrong bool) (inst, bool) {
	if wrong && !f.wrongActive {
		return 0, false
	}
	r := &f.r
	if !f.src.Next(r) {
		if wrong {
			f.wrongActive = false // the wrong path died
		}
		return 0, false
	}
	meta := uint8(r.Class) | uint8(r.Op)<<trace.MetaOpShift
	if r.Taken {
		meta |= trace.MetaTaken
	}
	in := makeInst(meta, r.Dst, r.Src1, r.Src2)
	if r.Op == trace.OpLoad || r.Op == trace.OpStore {
		// Wrong-path accesses use the speculative machine's real
		// addresses: this is the cache pollution the flag models.
		set, tag := f.dcache.IndexOf(r.Addr >> f.shift)
		if _, hit := f.dcache.Lookup(set, tag); !hit {
			f.dcache.Insert(set, tag)
			in |= instMiss
		}
	}
	if wrong || !r.Class.IsBranch() {
		// Wrong-path branches neither consult nor train the predictors
		// (no wrong-path predictor pollution).
		return in, true
	}
	p := f.engine.Predict(r)
	// The resolve cycle is unknown until issue; stamp telemetry events
	// with the fetch cycle instead.
	f.engine.Tel.SetClock(cycle)
	f.engine.Resolve(r, p)
	if p.Correct(r) {
		return in, true
	}
	if f.wf != nil {
		predicted := r.FallThrough()
		if p.Taken && p.HasTarget {
			predicted = p.Target
		}
		if predicted != r.NextPC() && f.wf.StartWrongPath(predicted) {
			f.wrongStarted, f.wrongActive = true, true
		}
	}
	return in | instMispredict, true
}

func (f *liveFront) squash() {
	if f.wrongStarted {
		f.wf.EndWrongPath()
		f.wrongStarted, f.wrongActive = false, false
	}
}

// columnFront is RunEvent's front end: a capture's columns, a predictor
// pass's mispredict bits and the capture's miss bits. It has no wrong
// path.
type columnFront struct {
	bs       trace.BlockSource
	blk      *trace.Block
	bi, pos  int   // the next block to fetch; the next record's offset in blk
	idx, br  int64 // record and branch ordinals of the next record
	bits     sim.BranchBits
	missBits []uint64
	// stamps are the instruction numbers of the pass's retained events,
	// cycles their fetch cycles found so far.
	stamps, cycles []int64
	err            error // the BlockAt failure that ended the records
}

func (f *columnFront) fetch(cycle int64, wrong bool) (inst, bool) {
	if wrong || f.err != nil {
		return 0, false
	}
	for f.blk == nil || f.pos == f.blk.Len() {
		if f.blk, f.err = f.bs.BlockAt(f.bi); f.err != nil {
			return 0, false
		}
		f.bi, f.pos = f.bi+1, 0
	}
	blk, i, idx := f.blk, f.pos, f.idx
	f.pos, f.idx = i+1, idx+1
	in := makeInst(blk.Meta[i], blk.Dst[i], blk.Src1[i], blk.Src2[i])
	if f.missBits[idx>>6]>>(idx&63)&1 != 0 { // set only on loads and stores
		in |= instMiss
	}
	if in.class() == trace.ClassOther {
		return in, true
	}
	f.br++
	if !f.bits.Has(f.br - 1) {
		return in, true
	}
	// Only mispredicted indirect jumps log events.
	if in.class().IsTargetCachePredicted() {
		if k := len(f.cycles); k < len(f.stamps) && f.stamps[k] == idx+1 {
			f.cycles = append(f.cycles, cycle)
		}
	}
	return in | instMispredict, true
}

func (f *columnFront) squash() {}
