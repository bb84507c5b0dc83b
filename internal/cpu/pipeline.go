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
// One pipeline pass times every predictor pass of a group on one
// machine. Their bits differ only where the predictors differ, so the
// pass simulates lanes, not members: a lane is one pipeline state and
// the members that currently share it. All members start in one lane; a
// lane forks just before a branch at which its members' bits disagree,
// a copy of its state taking the members on the other side; and every
// mergeEvery records inside a block, two lanes whose states are equal up
// to a time shift Δ merge, the moved members adding Δ to their clocks.
// The model only adds, subtracts, compares and takes maxima of cycles,
// so two states equal up to Δ stay equal up to Δ over the same records
// and bits. States are compared relative to fetchCycle, each value
// clamped at the floor below which no later record can see it: fetch
// never moves back, an operand or a functional unit is only asked about
// at or after fetchCycle+FrontEndDepth, a window slot only stalls fetch
// when its retire cycle is past fetchCycle, and an instruction retires
// no earlier than it completes, so lastRetire (and retiredThis) matter
// only at or above fetchCycle+FrontEndDepth. A member reads its Result
// from its lane plus its shift and counter offsets, and stops at its own
// Instructions.
//
// Telemetry: the predictor pass cannot know resolve cycles, so it stamps
// its events with instruction numbers (1-based, as accuracy runs do). The
// pipeline restamps the retained events with their branches' resolve
// cycles, which is the clock RunCtx stamps. TestRunReplayMatchesCursor
// pins every Result field and the restamped collectors against RunCtx,
// for a group whose lanes fork and merge.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

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

// check reports an error unless ms holds n records' outcomes for cfg's
// cache.
func (ms *Misses) check(cfg Config, n int64) error {
	if ms != nil && ms.n >= n &&
		ms.bytes == cfg.DCacheBytes && ms.ways == cfg.DCacheWays && ms.line == cfg.DCacheLine {
		return nil
	}
	return fmt.Errorf("cpu: the data-cache miss bits do not cover %d records of a %d-byte %d-way cache with %d-byte lines",
		n, cfg.DCacheBytes, cfg.DCacheWays, cfg.DCacheLine)
}

// Pass is a predictor pass over a capture, as the pipeline and the event
// pass (RunEvent) read it.
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
	// retained ones with their branches' resolve cycles, the event pass
	// with their fetch cycles.
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
	return RunPipeline(ctx, m.cfg, bs, misses, []Pass{pass})[0]
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

// The merge cadence. Lanes run a span of records each and then meet,
// and two lanes whose states are equal up to a time shift merge. A
// meeting costs every lane a pass through its loop's entry and exit, so
// two lanes meet only where a merge is likely to pay for the fork that
// undoes it: at least mergeAge records after the last branch at which
// their outcomes differ (states seldom re-converge sooner), with no such
// branch in the mergeRun records after it (the merged lane would fork
// again at once), and mergeEvery records apart while some two lanes
// qualify. Meetings stay inside blocks so that a member always
// reads its cycle count after at least one record of its lane's own (a
// failure stops the walk only at a block boundary).
const (
	mergeEvery = 32
	mergeAge   = 32
	mergeRun   = 64
)

// walkMembers is the most members one walk over the capture times: a
// lane's members are the set bits of one word.
const walkMembers = 64

// RunPipeline times, for each pass, the first pass.Instructions records
// of bs on machine cfg: RunCtx's scheduling model, taking each branch's
// outcome from the pass's mispredict bits and each load's and store's
// from misses, which must cover those records under cfg's cache
// geometry. Every Result field equals RunCtx's over the same records
// with the predictor the pass ran, and each pass's retained telemetry
// events end up stamped with resolve cycles, as RunCtx stamps them. The
// passes share one walk over bs (see the file comment) per walkMembers
// of them; a failure to read bs, or a cancelled ctx, stops every pass
// still running with that error, and a pass that stopped early reports
// its own Err.
func RunPipeline(ctx context.Context, cfg Config, bs trace.BlockSource, misses *Misses, passes []Pass) []Result {
	out := make([]Result, len(passes))
	if err := cfg.Validate(); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	p := pipes.Get().(*pipe)
	defer p.release()
	p.setup(cfg, misses)
	for i := range passes {
		ps := &passes[i]
		n := min(max(ps.Instructions, 0), bs.Len())
		if err := misses.check(cfg, n); err != nil {
			out[i].Err = err
			continue
		}
		stamps := ps.Tel.Clocks()
		p.members = append(p.members, member{n: n, bits: ps.Mispredicts, err: ps.Err, col: ps.Tel,
			stamps: stamps, cycles: make([]int64, 0, len(stamps)), out: &out[i]})
	}
	for lo := 0; lo < len(p.members); lo += walkMembers {
		p.walk(ctx, bs, p.members[lo:min(lo+walkMembers, len(p.members))])
	}
	for i := range p.members {
		m := &p.members[i]
		m.col.Restamp(m.cycles)
	}
	return out
}

// member is one pass as the pipeline times it.
type member struct {
	n    int64 // records to time
	bits sim.BranchBits
	err  error // the pass's own early stop
	col  *telemetry.Collector
	// stamps are the instruction numbers of the collector's retained
	// events, cycles their resolve cycles found so far.
	stamps, cycles []int64
	// shift is the member's clock minus its lane's, off its counters
	// minus its lane's.
	shift int64
	off   Result
	out   *Result
}

// split is a branch at which a walk's members disagree: ones holds the
// members that mispredicted it.
type split struct {
	br   int64
	ones uint64
}

// lane is one simulated pipeline state and the members that share it.
type lane struct {
	mask uint64 // its members: bit i is the walk's member i
	stop int64  // the fewest records any of its members times
	// scan indexes the first split at or after br as of the last change
	// of members; fork, once forkOK, the next split to look at for one at
	// which they disagree.
	scan, fork int
	forkOK     bool

	idx, br                  int64 // record and branch ordinals
	fetchCycle, lastRetire   int64
	fetchedThis, retiredThis int64
	res                      Result // counters
	// tagHi bounds the functional-unit ring's tags from above, together
	// with lastRetire, which bounds every tag the lane writes (an
	// instruction issues no later than it retires).
	tagHi int64
	win   []int64 // ring: retire cycle per window slot
	// reg has a slot per possible register byte, so no index needs a
	// bounds check. A write to register 0 (no destination) is undone at
	// once, so its slot stays 0 and reading it never delays an issue
	// cycle, which is never negative: no operand needs a zero test.
	// Slots above regHi are 0.
	reg   [regSlots]int64
	regHi int
	// Functional-unit occupancy ring, as in fuRing: entries are tagged
	// with their cycle and lazily reset.
	fu [fuRingLen]fuSlot
}

// fuSlot is one functional-unit ring entry: count instructions issued
// in the cycle whose ring index is the slot's and whose quotient by the
// ring's length is epoch (so cycles stay below 2^45).
type fuSlot struct {
	epoch, count uint32
}

// regSlots is the number of register slots: one per register byte.
const regSlots = 256

// tagBound is an upper bound on every tag in ln's functional-unit ring.
func (ln *lane) tagBound() int64 { return max(ln.tagHi, ln.lastRetire) }

// fuAt is the number of instructions ln has issued in cycle c, for a c
// at or above its floor fetchCycle+FrontEndDepth.
func (ln *lane) fuAt(c int64) int64 {
	if e := &ln.fu[c&(fuRingLen-1)]; e.epoch == uint32(c>>fuRingBits) {
		return int64(e.count)
	}
	return 0
}

// pipe is one RunPipeline call's state. Pipes, and the lane buffers they
// hold, are reused across calls.
type pipe struct {
	width, depth int64
	memLat       int64
	lats         [trace.NumOpClasses]int64
	window       int64
	winMask      int64 // window-1 for a power-of-two window, else -1
	missBits     []uint64
	members      []member

	// The current walk: its members, the splits of their passes in
	// order, the members that wait for resolve cycles, its lanes, and the
	// record offset at which they next meet.
	ms      []member
	splits  []split
	telMask uint64
	lanes   []*lane // oldest first
	end     int
	spare   []*lane // released lane buffers

	// The current block's branch records (block offsets), how many it
	// has and the branch ordinal of its first record, filled when the
	// walk has members to fork; regHi bounds the registers any record
	// read so far writes, the registers a merge compares.
	brPos    [trace.BlockLen]int32
	branches int
	br0      int64
	regHi    int
}

var pipes = sync.Pool{New: func() any { return new(pipe) }}

// setup readies p for a call on machine cfg over misses.
func (p *pipe) setup(cfg Config, misses *Misses) {
	p.width, p.depth, p.memLat, p.lats = int64(cfg.Width), int64(cfg.FrontEndDepth), cfg.MemLatency, cfg.Latencies
	// The window ring is indexed idx mod Window; every shipped geometry
	// is a power of two, indexed with a mask.
	p.window, p.winMask = int64(cfg.Window), -1
	if cfg.Window&(cfg.Window-1) == 0 {
		p.winMask = int64(cfg.Window - 1)
	}
	if misses != nil {
		p.missBits = misses.bits
	}
}

// release hands p, and with it its lane buffers, back to the pool.
func (p *pipe) release() {
	clear(p.members)
	p.members, p.ms, p.missBits = p.members[:0], nil, nil
	pipes.Put(p)
}

// walk times ms, at most walkMembers of them, in one walk over bs.
func (p *pipe) walk(ctx context.Context, bs trace.BlockSource, ms []member) {
	// A lone member never forks or merges, so its registers go untracked.
	p.ms, p.regHi = ms, 0
	if len(ms) == 1 {
		p.regHi = regSlots - 1
	}
	last := p.plan()
	p.start()
	for bi, base := 0, int64(0); ; bi++ {
		// Members whose records end at this block boundary stop before
		// the next block is polled for, as a single pass would.
		for _, ln := range p.lanes {
			p.stopAt(ln)
		}
		if p.compact(); len(p.lanes) == 0 {
			return
		}
		if err := ctx.Err(); err != nil {
			p.fail(err)
			return
		}
		blk, err := bs.BlockAt(bi)
		if err != nil {
			p.fail(err)
			return
		}
		m := int(min(int64(blk.Len()), last-base))
		p.block(blk)
		for pos := 0; pos < m && len(p.lanes) > 0; pos = p.end {
			// Lanes forked within the span run the rest of it in turn.
			p.end = p.meet(pos, m)
			for li := 0; li < len(p.lanes); li++ {
				p.advance(p.lanes[li], blk, base, m)
			}
			if p.compact(); p.end < m {
				p.merge()
			}
		}
		base += int64(m)
	}
}

// plan lists the walk's splits and collecting members, and returns the
// most records any member times.
func (p *pipe) plan() (last int64) {
	p.splits, p.telMask = p.splits[:0], 0
	word := func(b sim.BranchBits, w int) uint64 {
		if w < len(b) {
			return b[w]
		}
		return 0
	}
	words := 0
	for i := range p.ms {
		m := &p.ms[i]
		words = max(words, len(m.bits))
		if len(m.stamps) > 0 {
			p.telMask |= 1 << i
		}
		last = max(last, m.n)
	}
	for w := 0; w < words && len(p.ms) > 1; w++ {
		some, all := uint64(0), ^uint64(0)
		for i := range p.ms {
			x := word(p.ms[i].bits, w)
			some, all = some|x, all&x
		}
		for diff := some ^ all; diff != 0; diff &= diff - 1 {
			b := bits.TrailingZeros64(diff)
			var ones uint64
			for i := range p.ms {
				ones |= word(p.ms[i].bits, w) >> b & 1 << i
			}
			p.splits = append(p.splits, split{br: int64(w)<<6 + int64(b), ones: ones})
		}
	}
	return last
}

// take returns a lane buffer for a Window-slot machine; its state is
// stale.
func (p *pipe) take() *lane {
	var ln *lane
	if k := len(p.spare); k > 0 {
		ln, p.spare = p.spare[k-1], p.spare[:k-1]
	} else {
		ln = new(lane)
	}
	if int64(cap(ln.win)) < p.window {
		ln.win = make([]int64, p.window)
	}
	ln.win = ln.win[:p.window]
	return ln
}

// start puts every member of the walk in one lane at record 0 of an idle
// machine.
func (p *pipe) start() {
	ln := p.take()
	clear(ln.win)
	clear(ln.reg[:])
	ln.regHi = p.regHi
	clear(ln.fu[:])
	ln.idx, ln.br, ln.fetchCycle, ln.lastRetire, ln.fetchedThis, ln.retiredThis = 0, 0, 0, 0, 0, 0
	ln.res, ln.tagHi = Result{}, 0
	ln.mask = 1<<len(p.ms) - 1 // all ones for walkMembers
	ln.scan, ln.forkOK = 0, false
	p.joined(ln)
	p.lanes = append(p.lanes, ln)
}

// block prepares the walk for blk, which starts at the lanes' common
// branch ordinal: with more than one member, its branch records, for
// locating forks, and its registers, for comparing lanes. It reads eight
// records a word at a time.
func (p *pipe) block(blk *trace.Block) {
	if len(p.ms) == 1 {
		return
	}
	p.br0 = p.lanes[0].br
	n, regs, meta, dst := 0, uint64(0), blk.Meta, blk.Dst
	i := 0
	for ; i+8 <= len(meta); i += 8 {
		regs |= binary.LittleEndian.Uint64(dst[i:])
		// A byte's high bit is set when its class is not ClassOther.
		classes := binary.LittleEndian.Uint64(meta[i:]) & 0x0f0f0f0f0f0f0f0f
		for br := (classes + 0x7f7f7f7f7f7f7f7f) & 0x8080808080808080; br != 0; br &= br - 1 {
			p.brPos[n] = int32(i + bits.TrailingZeros64(br)>>3)
			n++
		}
	}
	for ; i < len(meta); i++ {
		regs |= uint64(dst[i])
		if meta[i]&trace.MetaClassMask != 0 {
			p.brPos[n] = int32(i)
			n++
		}
	}
	p.branches = n
	regs |= regs >> 32
	regs |= regs >> 16
	regs |= regs >> 8
	p.regHi = max(p.regHi, 1<<bits.Len8(uint8(regs))-1)
}

// advance runs ln up to block offset p.end of blk, of which the walk
// times m records, stopping members at their ends and forking where its
// members' bits disagree.
func (p *pipe) advance(ln *lane, blk *trace.Block, base int64, m int) {
	for {
		if p.stopAt(ln); ln.mask == 0 {
			return
		}
		i := int(ln.idx - base)
		if i >= p.end {
			return
		}
		end := p.end
		if s := ln.stop - base; s < int64(end) {
			end = int(s)
		}
		if ln.mask&(ln.mask-1) != 0 {
			f := p.forkAt(ln)
			if f == i {
				p.split(ln, i, m)
				continue
			}
			end = min(end, f)
		}
		p.run(ln, blk, base, end)
	}
}

// stopAt finishes ln's members whose records end at ln's position.
func (p *pipe) stopAt(ln *lane) {
	if ln.mask == 0 || ln.idx != ln.stop {
		return
	}
	for o := ln.mask; o != 0; o &= o - 1 {
		i := bits.TrailingZeros64(o)
		if m := &p.ms[i]; m.n == ln.idx {
			p.finish(ln, m, m.err)
			ln.mask &^= 1 << i
		}
	}
	p.joined(ln)
}

// joined refreshes what ln derives from its members, which changed.
func (p *pipe) joined(ln *lane) {
	ln.stop, ln.forkOK = math.MaxInt64, false
	for o := ln.mask; o != 0; o &= o - 1 {
		ln.stop = min(ln.stop, p.ms[bits.TrailingZeros64(o)].n)
	}
}

// finish writes m's result as of ln's position, with err.
func (p *pipe) finish(ln *lane, m *member, err error) {
	r := ln.res
	r.addCounters(&m.off, 1)
	r.Instructions = ln.idx
	r.Cycles = ln.lastRetire + 1 + m.shift
	r.Err = err
	*m.out = r
}

// fail stops every member still running with err.
func (p *pipe) fail(err error) {
	for _, ln := range p.lanes {
		for o := ln.mask; o != 0; o &= o - 1 {
			p.finish(ln, &p.ms[bits.TrailingZeros64(o)], err)
		}
		ln.mask = 0
	}
	p.compact()
}

// compact frees the lanes left with no members, remembering how far
// their stale tags and registers reach.
func (p *pipe) compact() {
	live := p.lanes[:0]
	for _, ln := range p.lanes {
		if ln.mask != 0 {
			live = append(live, ln)
			continue
		}
		ln.tagHi, ln.regHi = ln.tagBound(), max(ln.regHi, p.regHi)
		p.spare = append(p.spare, ln)
	}
	clear(p.lanes[len(live):])
	p.lanes = live
}

// forkAt is the block offset of the record at which ln must fork next:
// the next branch at which its members' bits disagree, or BlockLen when
// none does in this block. The splits it passes over are not looked at
// again until ln's members change.
func (p *pipe) forkAt(ln *lane) int {
	if !ln.forkOK {
		for ln.scan < len(p.splits) && p.splits[ln.scan].br < ln.br {
			ln.scan++
		}
		ln.fork, ln.forkOK = ln.scan, true
	}
	for limit := p.br0 + int64(p.branches); ln.fork < len(p.splits) && p.splits[ln.fork].br < limit; ln.fork++ {
		if o := p.splits[ln.fork].ones & ln.mask; o != 0 && o != ln.mask {
			return int(p.brPos[p.splits[ln.fork].br-p.br0])
		}
	}
	return trace.BlockLen
}

// split forks ln at block offset i, just before the branch at which its
// members' bits disagree: a new lane, a copy of ln's state, takes the
// members that mispredicted the branch and runs the rest of the span
// after ln. When ln runs first in the span, the span ends where the two
// may merge.
func (p *pipe) split(ln *lane, i, m int) {
	nl := p.take()
	nl.idx, nl.br, nl.res = ln.idx, ln.br, ln.res
	nl.fetchCycle, nl.fetchedThis, nl.lastRetire, nl.retiredThis = ln.fetchCycle, ln.fetchedThis, ln.lastRetire, ln.retiredThis
	copy(nl.win, ln.win)
	// Registers above p.regHi are 0 in every lane of the walk.
	copy(nl.reg[:p.regHi+1], ln.reg[:p.regHi+1])
	if nl.regHi > p.regHi {
		clear(nl.reg[p.regHi+1 : nl.regHi+1])
	}
	nl.regHi = p.regHi
	// Copy the functional-unit ring's slots for the cycles from the floor
	// to the highest tag either ring holds. A copied slot whose tag is not
	// its cycle in that range holds a tag below the floor, which is dead,
	// and so is every tag of nl's own outside it.
	floor := ln.fetchCycle + p.depth
	if hi := max(ln.tagBound(), nl.tagHi); hi-floor >= fuRingLen-1 {
		nl.fu = ln.fu
	} else if hi >= floor {
		lo, up := floor&(fuRingLen-1), hi&(fuRingLen-1)
		if lo > up {
			copy(nl.fu[lo:], ln.fu[lo:])
			lo = 0
		}
		copy(nl.fu[lo:up+1], ln.fu[lo:up+1])
	}
	nl.tagHi = max(floor, ln.tagBound())

	sp := p.splits[ln.fork]
	nl.mask, ln.mask = ln.mask&sp.ones, ln.mask&^sp.ones
	nl.scan, ln.scan = ln.fork+1, ln.fork+1
	p.joined(ln)
	p.joined(nl)
	p.lanes = append(p.lanes, nl)
	if ln == p.lanes[0] {
		p.end = min(p.end, p.clean(ln, nl, i+mergeAge, m))
	}
}

// meet is the block offset, after pos and at most m, at which the lanes
// next meet: the first at which some two of them may merge, or m.
func (p *pipe) meet(pos, m int) int {
	t, next := m, pos+mergeEvery
	for ai, a := range p.lanes {
		for _, b := range p.lanes[ai+1:] {
			if t = min(t, p.clean(a, b, next, m)); t == next {
				return t
			}
		}
	}
	return t
}

// clean is the first block offset t from t0 on (and before m) such that
// a's and b's outcomes do not differ at any branch in
// [t-mergeAge, t+mergeRun), or m. Its scan starts at a's position, at
// most t0-mergeAge.
func (p *pipe) clean(a, b *lane, t0, m int) int {
	for a.scan < len(p.splits) && p.splits[a.scan].br < a.br {
		a.scan++
	}
	ra, rb := bits.TrailingZeros64(a.mask), bits.TrailingZeros64(b.mask)
	t, limit := t0, p.br0+int64(p.branches)
	for k := a.scan; k < len(p.splits) && p.splits[k].br < limit && t < m; k++ {
		sp := p.splits[k]
		s := int(p.brPos[sp.br-p.br0])
		if s >= t+mergeRun {
			break
		}
		if (sp.ones>>ra^sp.ones>>rb)&1 != 0 && s+mergeAge > t {
			t = s + mergeAge
		}
	}
	return min(t, m)
}

// merge moves the members of every lane whose state equals an older
// lane's up to a time shift into the older lane, and frees the emptied
// lanes.
func (p *pipe) merge() {
	for ai, a := range p.lanes {
		for _, b := range p.lanes[ai+1:] {
			if a.mask == 0 || b.mask == 0 {
				continue
			}
			d, ok := p.shift(a, b)
			if !ok {
				continue
			}
			for o := b.mask; o != 0; o &= o - 1 {
				m := &p.ms[bits.TrailingZeros64(o)]
				m.shift += d
				m.off.addCounters(&b.res, 1)
				m.off.addCounters(&a.res, -1)
			}
			a.mask |= b.mask
			a.stop, a.forkOK = min(a.stop, b.stop), false
			b.mask = 0
		}
	}
	p.compact()
}

// shift reports whether b's state equals a's delayed by d cycles, every
// value compared relative to its lane's fetchCycle and clamped at the
// floor below which no later record can see it.
func (p *pipe) shift(a, b *lane) (d int64, ok bool) {
	fa, fb, depth := a.fetchCycle, b.fetchCycle, p.depth
	if a.fetchedThis != b.fetchedThis {
		return 0, false
	}
	// lastRetire is read only when it is at or above the floor: a later
	// instruction completes no earlier.
	ra, rb := a.lastRetire-fa, b.lastRetire-fb
	if live := ra >= depth; live != (rb >= depth) || live && (ra != rb || a.retiredThis != b.retiredThis) {
		return 0, false
	}
	// A window slot stalls fetch only when it retires after fetchCycle.
	// Instructions retire in order, so from the newest record back, the
	// first slot that is dead in both lanes ends the live ones.
	for n, s := min(a.idx, p.window), (a.idx-1+p.window)%p.window; n > 0; n-- {
		x := max(a.win[s]-fa, 0)
		if x != max(b.win[s]-fb, 0) {
			return 0, false
		}
		if x == 0 {
			break
		}
		if s--; s < 0 {
			s = p.window - 1
		}
	}
	for r, x := range a.reg[:p.regHi+1] {
		if max(x-fa, depth) != max(b.reg[r]-fb, depth) {
			return 0, false
		}
	}
	hi := max(a.tagBound()-fa, b.tagBound()-fb)
	if hi-depth >= fuRingLen {
		return 0, false
	}
	for c := depth; c <= hi; c++ {
		if a.fuAt(fa+c) != b.fuAt(fb+c) {
			return 0, false
		}
	}
	return fb - fa, true
}

// stamp records the resolve cycle of the mispredicted indirect branch at
// record idx, completing at lane cycle complete, for each of ln's
// members that retained its event.
func (p *pipe) stamp(ln *lane, idx, complete int64) {
	for o := ln.mask & p.telMask; o != 0; o &= o - 1 {
		m := &p.ms[bits.TrailingZeros64(o)]
		if k := len(m.cycles); k < len(m.stamps) && m.stamps[k] == idx+1 {
			m.cycles = append(m.cycles, complete+m.shift)
		}
	}
}

// addCounters adds sign times o's counters to r's.
func (r *Result) addCounters(o *Result, sign int64) {
	r.Branches += sign * o.Branches
	r.Mispredicts += sign * o.Mispredicts
	r.IndirectCount += sign * o.IndirectCount
	r.IndirectMispredicts += sign * o.IndirectMispredicts
	r.CondMispredicts += sign * o.CondMispredicts
	r.ReturnMispredicts += sign * o.ReturnMispredicts
	r.DCacheAccesses += sign * o.DCacheAccesses
	r.DCacheMisses += sign * o.DCacheMisses
	r.MispredictStallCycles += sign * o.MispredictStallCycles
	r.WindowStallCycles += sign * o.WindowStallCycles
}

// run times ln over block offsets [ln.idx-base, end) of blk, taking each
// branch's outcome from its first member's bits (all its members agree
// up to end), with the lane's scalar state in locals.
func (p *pipe) run(ln *lane, blk *trace.Block, base int64, end int) {
	width, depth, memLat, lats := p.width, p.depth, p.memLat, p.lats
	winMask, winMod := p.winMask, p.window
	missBits, mispredicts := p.missBits, p.ms[bits.TrailingZeros64(ln.mask)].bits
	fetchCycle, fetchedThis := ln.fetchCycle, ln.fetchedThis
	lastRetire, retiredThis := ln.lastRetire, ln.retiredThis
	idx, br, res, tel := ln.idx, ln.br, &ln.res, ln.mask&p.telMask != 0
	windowRetire := ln.win

	// Reslice every column to the span once: the i < m bound then proves
	// each index in range, eliding per-access bounds checks and
	// slice-header reloads.
	start := int(idx - base)
	m := end - start
	meta := blk.Meta[start:end]
	dsts := blk.Dst[start:end]
	src1s := blk.Src1[start:end]
	src2s := blk.Src2[start:end]
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
		issue := max(fetched+depth, ln.reg[src1s[i]], ln.reg[src2s[i]])
		fu, epoch := &ln.fu[issue&(fuRingLen-1)], uint32(issue>>fuRingBits)
		if fu.epoch != epoch {
			fu.epoch, fu.count = epoch, 0
		}
		for int64(fu.count) >= width {
			issue++
			if fu, epoch = &ln.fu[issue&(fuRingLen-1)], uint32(issue>>fuRingBits); fu.epoch != epoch {
				fu.epoch, fu.count = epoch, 0
			}
		}
		fu.count++

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
		ln.reg[dsts[i]] = complete
		ln.reg[0] = 0

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
					if tel {
						p.stamp(ln, idx, complete)
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

	ln.fetchCycle, ln.fetchedThis = fetchCycle, fetchedThis
	ln.lastRetire, ln.retiredThis = lastRetire, retiredThis
	ln.idx, ln.br = idx, br
}
