package sim

import (
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/dirpred"
	"repro/internal/history"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Batched accuracy kernel: every accuracy run over a decoded block stream —
// a solo run (a gang of one), a run with periodic flushes, a segment
// worker's priming walk and its simulated span, a fused gang, and a
// kept front-end walk (walk.go) — executes gangKernel below. It differs
// from the streaming reference loop (Run over a factory that is not a
// BlockSource) in ways none of which is observable in the results:
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
//     share key; see gang.go for why that is exact.
//   - Two steps. The kernel is a walk and a member step. The walk runs
//     the front end over every branch: BTB probe, the prediction of every
//     branch that consults no target cache (counted once, it is every
//     member's), and the training of the BTB, RAS, direction predictor
//     and history registers. It emits an event for each record whose
//     prediction consults the target caches or whose resolution trains
//     them, with the history values it was fetched under, and the member
//     step (memberStep) runs every member's target cache over the event.
//     A kept walk (walk.go) instead keeps every event, and its replays
//     run the member step over them. A BTB gang has a walk and a member
//     loop of its own (btbGangKernel, runBTBMembers), which share the
//     BTB's prediction (btbPredict) with the walk; its members whose BTB
//     never evicts run on one BTB per update strategy (memberBTBs).
//   - Variants. BTB-only members that differ from the walk's front end
//     only in BTB update strategy or RAS depth ride the walk: a variant
//     step (stepVariants) in place of the BTB update counts them apart at
//     the branches whose BTB entry is an indirect jump or a return,
//     trains the BTB and the payloads and RASes they read. A gang
//     without variants pays one untaken branch per branch record for it.
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

// event is one record the member step reads. In a gang with target
// caches: a branch whose prediction consulted them (its BTB entry holds an
// indirect class), or an indirect jump or call, whose resolution trains
// them. In a BTB gang: every branch, which each member's BTB predicts.
type event struct {
	pc, target uint64
	// btbTarget is, on a consulting event, the BTB entry's target — a
	// member's prediction when its target cache misses; on another
	// target-cache event, the front end's shared predicted target, which
	// telemetry reports; in a BTB gang, the RAS top.
	btbTarget uint64
	n         int64 // instruction index: the telemetry clock
	cls       trace.Class
	flags     uint8
}

const (
	evTaken     uint8 = 1 << iota // the branch was taken
	evConsult                     // the prediction consulted the target caches
	evPredicted                   // shared outcome: a taken target was predicted
	evCorrect                     // shared outcome: and it was right
	evDirTaken                    // BTB gang: the direction predictor says taken
	evRASValid                    // BTB gang: the RAS holds a return address
)

// outcomes counts predictions by branch class, indexed by trace.Class;
// AccuracyResult's split (add) merges calls into Direct and indirect
// calls into Indirect, and every class into Overall.
type outcomes [8]stats.Counter

// record counts one prediction of a branch of class cls.
func (o *outcomes) record(cls trace.Class, correct bool) { o[cls&7].Record(correct) }

// add merges o into res's class counters.
func (o *outcomes) add(res *AccuracyResult) {
	res.Conditional.Add(o[trace.ClassCondDirect])
	res.Direct.Add(o[trace.ClassUncondDirect])
	res.Direct.Add(o[trace.ClassCall])
	res.Returns.Add(o[trace.ClassReturn])
	res.Indirect.Add(o[trace.ClassIndJump])
	res.Indirect.Add(o[trace.ClassIndCall])
	for _, c := range o {
		res.Overall.Add(c)
	}
}

// btbPredict is Engine.Predict for a branch whose target no target cache
// supplies: a BTB miss falls through; a hit predicts the entry's class's
// way — a conditional entry by the direction predictor's verdict
// dirTaken, a return entry to the RAS top (rasTarget, rasOK), any other
// entry to its target.
func btbPredict(entry btb.Entry, hit, dirTaken bool, rasTarget uint64, rasOK bool) (taken bool, target uint64, hasTarget bool) {
	switch {
	case !hit || entry.Class == trace.ClassCondDirect && !dirTaken:
		return false, 0, false
	case entry.Class == trace.ClassReturn:
		return true, rasTarget, rasOK
	}
	return true, entry.Target, true
}

// gangMember is the per-member state of a kernel run. The slice of these
// is the gang's only per-member allocation besides the target caches (or,
// in a BTB gang, the BTBs) themselves; counters here record only the
// records whose outcome diverged per member — their prediction consulted
// the member's target cache, or, in a BTB gang, any branch — while the
// shared skeleton counters live once in the gang.
type gangMember struct {
	hist int32 // index into the history values (their count for none)
	// mask keeps the low bits of a shared register a shallower member
	// reads; all ones when the member's depth is the register's.
	mask uint64
	btb  *btb.BTB // the member's own BTB in a BTB gang; nil otherwise
	// on is, in a BTB gang, the member whose BTB this one runs on: it
	// simulates no BTB and reports that member's counters and bits
	// (memberBTBs). nil when the member runs its own.
	on  *gangMember
	tel *telemetry.Collector // nil when the member collects no telemetry

	outcomes
	tcCovered int64
	// bits marks the member's mispredictions among the records whose
	// prediction consulted the target caches (in a BTB gang, every
	// branch), by their ordinal among those records, when the gang
	// records mispredict bits.
	bits BranchBits
}

// gang is the instantiated state the kernel runs over: one front end
// shared by every member — a BTB (unless each member brings its own), a
// RAS and a direction predictor — the history registers, and per member
// a target cache and its register index.
type gang struct {
	btb       *btb.BTB // nil in a BTB gang
	ras       *btb.RAS
	dir       *dirpred.Predictor
	members   []gangMember
	tcs       []core.TargetCache
	providers []history.Provider
	// consults is set when some member carries a target cache: the walk
	// then emits an event for every record that consults or trains one.
	consults  bool
	telemetry bool // some member carries a collector
	// bits is set when some member wants mispredict bits. Indexed by
	// branch ordinal within the span, shared then marks the mispredicted
	// branches whose outcome is every member's, and mask the branches
	// whose prediction consulted the target caches, consulted counting
	// them. A member's own bits are indexed by that count, so they stay
	// small until deliverBits joins them with shared.
	bits      bool
	shared    BranchBits
	mask      BranchBits
	consulted int64

	// vars are the gang's variants, the run's members after members:
	// BTB-only members on the walk's BTB geometry and direction predictor
	// whose update strategy or RAS depth may differ (gang.go). payloads
	// follow the walk's BTB under each other strategy a variant has, and
	// rases are the RASes of the other depths they have. walkApart counts
	// the walk's predictions, in res, of the branches the variants count
	// apart, which a variant's result replaces with its own.
	vars      []variant
	payloads  []*btb.Payloads
	rases     []*btb.RAS
	walkApart outcomes

	// kept holds a kept walk's events with, for each, the providers'
	// values at its fetch: one exactly sized chunk per poll interval.
	kept []eventBuf
	// The kernel's outcome: the shared-outcome counters, the span's
	// branch and instruction counts, and the error that stopped it.
	res             outcomes
	branches, insns int64
	err             error
}

// newGang instantiates pts over the first member's front end, its
// variants riding along (addVariants), or, for a BTB gang, over its RAS
// and direction predictor with the members' BTBs (memberBTBs), for the
// walks over sp that follow; the caller guarantees pts is fusable. A
// member without a target cache (the BTB-only baseline) runs with noTC
// and no history.
func newGang(ctx context.Context, sp span, pts []GangPoint) *gang {
	g := newFrontEnd(pts[0].Config)
	k, variants := variantsFrom(pts)
	if variants {
		g.addVariants(pts[0].Config, pts[k:])
		pts = pts[:k]
	}
	g.members = make([]gangMember, len(pts))
	g.tcs = make([]core.TargetCache, len(pts))
	if !variants {
		g.btb = nil
		g.memberBTBs(ctx, sp, pts)
	}
	regs := make(map[string]int32, len(pts))
	depths := make([]int, len(pts))
	for i, pt := range pts {
		cfg := pt.Config
		m := &g.members[i]
		m.tel = cfg.Telemetry
		g.telemetry = g.telemetry || m.tel != nil
		g.bits = g.bits || pt.Mispredicts != nil
		if cfg.NewTargetCache == nil {
			g.tcs[i] = noTC{}
			m.hist = -1
			continue
		}
		g.tcs[i] = cfg.NewTargetCache()
		g.consults = true
		m.hist, depths[i] = g.register(pt, regs)
	}
	for i := range g.members {
		m := &g.members[i]
		if m.hist < 0 {
			m.hist = int32(len(g.providers))
			continue
		}
		m.mask = readMask(depths[i], g.providers[m.hist].Len())
	}
	return g
}

// variant is one variant's state: where it reads its update strategy's
// targets (nil: the walk's BTB) and its RAS depth's return addresses, its
// collector, and its counters over the branches the walk counts apart.
type variant struct {
	payload *btb.Payloads
	ras     *btb.RAS
	tel     *telemetry.Collector
	outcomes
}

// addVariants gives the gang, whose walk runs front, the variants pts.
// Variants of one update strategy other than the walk's read one set of
// payloads, and variants of one RAS depth one RAS: the walk's at its
// depth.
func (g *gang) addVariants(front Config, pts []GangPoint) {
	payloads := make(map[btb.Strategy]*btb.Payloads)
	rases := map[int]*btb.RAS{front.RASDepth: g.ras}
	g.vars = make([]variant, len(pts))
	for i, pt := range pts {
		cfg, v := pt.Config, &g.vars[i]
		v.tel = cfg.Telemetry
		if v.ras = rases[cfg.RASDepth]; v.ras == nil {
			v.ras = btb.NewRAS(cfg.RASDepth)
			rases[cfg.RASDepth] = v.ras
			g.rases = append(g.rases, v.ras)
		}
		if s := cfg.BTB.Strategy; s != front.BTB.Strategy {
			if v.payload = payloads[s]; v.payload == nil {
				v.payload = btb.NewPayloads(cfg.BTB)
				payloads[s] = v.payload
				g.payloads = append(g.payloads, v.payload)
			}
		}
	}
}

// memberBTBs gives each member of a BTB gang a BTB to run on. A BTB
// that holds the PCs of every taken branch of records [0, sp.end)
// (btb.Config.Holds) never evicts, so it hits on a branch iff the branch
// was taken since the last flush, and the entry's target, class and
// 2-bit counter follow only that branch's own records: every holding
// member of one update strategy predicts every branch alike. The first
// holding member of each strategy gets a BTB; each later one runs on it,
// unless it carries a collector, whose events it must report itself.
// Every other member gets its own. The scan covers the primed prefix of
// a segment too; when it cannot finish (a read error, or ctx done, which
// the walk then reports), every member gets its own BTB.
func (g *gang) memberBTBs(ctx context.Context, sp span, pts []GangPoint) {
	pcs, scanned := takenPCs(ctx, sp.bs, sp.end)
	first := make(map[btb.Strategy]*gangMember)
	for i, pt := range pts {
		m, cfg := &g.members[i], pt.Config.BTB
		if scanned && cfg.Holds(pcs) {
			if on := first[cfg.Strategy]; on == nil {
				first[cfg.Strategy] = m
			} else if pt.Config.Telemetry == nil {
				m.on = on
				continue
			}
		}
		m.btb = btb.New(cfg)
	}
}

// takenPCs returns the distinct PCs of the taken branches among records
// [0, end) of bs, the PCs a BTB allocates entries for. It polls ctx as
// the walk does, and reports false when ctx is done or a block cannot be
// read.
func takenPCs(ctx context.Context, bs trace.BlockSource, end int64) ([]uint64, bool) {
	effEnd := min(max(end, 0), bs.Len())
	var pcs []uint64
	seen := make(map[uint64]bool)
	// last filters the records the map would find: a direct-mapped table
	// of the PC last seen per slot. Each slot starts at a PC of another
	// slot, which matches none of its own.
	var last [256]uint64
	for i := range last {
		last[i] = uint64(i+1) << 2
	}
	for base := int64(0); base < effEnd; base += trace.BlockLen {
		if base&ctxCheckMask == 0 && ctx.Err() != nil {
			return nil, false
		}
		blk, err := bs.BlockAt(int(base / trace.BlockLen))
		if err != nil {
			return nil, false
		}
		m := min(len(blk.Meta), int(effEnd-base))
		for i, mb := range blk.Meta[:m] {
			if mb&trace.MetaTaken == 0 || trace.Class(mb&trace.MetaClassMask) == trace.ClassOther {
				continue
			}
			pc := blk.PC[i]
			if slot := &last[(pc>>2)%uint64(len(last))]; *slot != pc {
				*slot = pc
				if !seen[pc] {
					seen[pc] = true
					pcs = append(pcs, pc)
				}
			}
		}
	}
	return pcs, true
}

// newFrontEnd is a gang of no members over cfg's front end.
func newFrontEnd(cfg Config) *gang {
	return &gang{
		btb: btb.New(cfg.BTB),
		ras: btb.NewRAS(cfg.RASDepth),
		dir: dirpred.New(cfg.Dir),
	}
}

// register builds pt's history provider and returns the index of the
// register it reads, and its depth: members with equal HistShare keys
// read one register, the deepest of theirs.
func (g *gang) register(pt GangPoint, regs map[string]int32) (int32, int) {
	if pt.Config.NewHistory == nil {
		panic("sim: target cache configured without a history")
	}
	h := pt.Config.NewHistory()
	if key := pt.HistShare; key != "" {
		if idx, ok := regs[key]; ok {
			if h.Len() > g.providers[idx].Len() {
				g.providers[idx] = h
			}
			return idx, h.Len()
		}
		regs[key] = int32(len(g.providers))
	}
	g.providers = append(g.providers, h)
	return int32(len(g.providers) - 1), h.Len()
}

// readMask is the mask a member of the given history depth applies to a
// register of regDepth bits: the low depth bits, or all of them.
func readMask(depth, regDepth int) uint64 {
	if depth >= regDepth || depth >= 64 {
		return math.MaxUint64
	}
	return 1<<depth - 1
}

// span is one kernel walk over records [start, end) of a block stream.
type span struct {
	bs            trace.BlockSource
	start, end    int64
	flushInterval int64 // reset every structure each flushInterval instructions; 0 never
	// prime walks for the state mutations only: no counters, no
	// telemetry, and none of the pure lookups that only feed them.
	prime bool
	// keep keeps every event for later replays (a kept walk, which
	// has no members) instead of running the members on each.
	keep bool
	// walk, when set, replaces the walk: the members run over its events.
	walk *Walk
}

// run executes the kernel over sp: a BTB gang's walk, or the kernel (or a
// replay of sp.walk) at the members' concrete target-cache and history
// types. Solo runs are trivially homogeneous, and grid expansion emits
// sweep points family by family, so gangs mix families only at grid
// boundaries; a heterogeneous gang (or an unlisted type) takes the
// interface-typed instantiation of the same kernel.
func (g *gang) run(ctx context.Context, sp span) []AccuracyResult {
	if g.btb == nil && sp.walk == nil {
		return btbGangKernel(ctx, sp, g)
	}
	switch {
	case allOf[noTC](g.tcs):
		return runTC(ctx, sp, g, cast[noTC](g.tcs))
	case allOf[*core.Tagless](g.tcs):
		return runTC(ctx, sp, g, cast[*core.Tagless](g.tcs))
	case allOf[*core.Tagged](g.tcs):
		return runTC(ctx, sp, g, cast[*core.Tagged](g.tcs))
	case allOf[*core.Cascaded](g.tcs):
		return runTC(ctx, sp, g, cast[*core.Cascaded](g.tcs))
	case allOf[*core.ITTAGE](g.tcs):
		return runTC(ctx, sp, g, cast[*core.ITTAGE](g.tcs))
	case allOf[*core.Chooser](g.tcs):
		return runTC(ctx, sp, g, cast[*core.Chooser](g.tcs))
	}
	return runTC(ctx, sp, g, g.tcs)
}

// runTC is run's second half: for an already-resolved target-cache type
// it replays a kept walk, or instantiates the kernel over the providers'
// concrete type (a gang with no providers takes the first arm).
func runTC[TC targetCache](ctx context.Context, sp span, g *gang, tcs []TC) []AccuracyResult {
	if sp.walk != nil {
		return replayWalk(ctx, sp.walk, g, tcs)
	}
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

// gangKernel is the walk over records [sp.start, sp.end): the shared
// front end per branch, and the member step on every event it emits
// (unless sp.keep keeps the events for later replays).
// Instruction indices (context polls, flush points, telemetry clocks) are
// absolute trace positions, so a segment's span behaves exactly like the
// same span of a streaming run; each result's Instructions counts only the
// records processed in the span.
func gangKernel[TC targetCache, H historySource](
	ctx context.Context, sp span, g *gang, tcs []TC, hists []H,
) []AccuracyResult {
	var res outcomes // shared skeleton counters
	var branches int64
	bs, members := sp.bs, g.members
	btbT, ras, dir := g.btb, g.ras, g.dir
	count, tel, consults := !sp.prime, !sp.prime && g.telemetry, g.consults
	bits := count && g.bits
	vary := len(g.vars) > 0
	nh := len(hists)
	// e and hv are the event being emitted; a kept walk collects events
	// in events and hvals until it keeps them as a chunk.
	var e event
	hv := make([]uint64, nh)
	var events []event
	var hvals []uint64

	// The block layout invariant (block i covers records [i*BlockLen,
	// i*BlockLen+len)) lets the kernel seek straight to the start block.
	effEnd := min(max(sp.end, 0), bs.Len())
	start := min(max(sp.start, 0), effEnd)
	insns := start
	if bits {
		// A bit per record holds every branch ordinal of the span, so the
		// loop sets shared and mask bits in place.
		words := (effEnd - start + 63) / 64
		g.shared, g.mask = make(BranchBits, words), make(BranchBits, words)
	}
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
			return g.finish(res, branches, insns-start, err)
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
				if sp.keep {
					g.keepChunk(events, hvals)
					events, hvals = events[:0], hvals[:0]
				}
				if n == nextPoll {
					nextPoll += ctxCheckMask + 1
					if err := ctx.Err(); err != nil {
						return g.finish(res, branches, n-start, err)
					}
				}
				if n == nextFlush {
					nextFlush += sp.flushInterval
					g.reset()
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
			if count {
				branches++
			}

			// ---- shared fetch skeleton: one BTB probe ----
			entry, bref, hit := btbT.Probe(r.PC)
			indirectCls := cls == trace.ClassIndJump || cls == trace.ClassIndCall
			// consult: the prediction consults the target caches, so
			// the outcome can differ per member. This keys on the BTB's
			// *detected* class, like Engine.Predict; an indirect class
			// is always predicted taken, so no direction lookup gates
			// it.
			consult := consults && hit && (entry.Class == trace.ClassIndJump || entry.Class == trace.ClassIndCall)
			var ev *event
			if consult || consults && indirectCls {
				e = event{pc: r.PC, target: r.Target, btbTarget: entry.Target, n: base + int64(i) + 1, cls: cls}
				ev = &e
				if r.Taken {
					ev.flags |= evTaken
				}
				if consult {
					ev.flags |= evConsult
					if bits {
						ord := branches - 1
						g.mask[ord>>6] |= 1 << (ord & 63)
					}
				}
				// Value is pure and providers are not trained until
				// Observe below, so one read per register serves every
				// member — the same value a solo run would see.
				for pi := range hists {
					hv[pi] = hists[pi].Value(r.PC)
				}
			}
			if !consult && count {
				// No target cache consulted: the prediction — and its
				// correctness — is identical for every member. Count
				// once.
				// The direction and RAS lookups are only made when the
				// entry's class reads them (a RAS peek divides).
				var rasTarget uint64
				rasOK := false
				if hit && entry.Class == trace.ClassReturn {
					rasTarget, rasOK = ras.Peek()
				}
				pTaken, pTarget, pHasTarget := btbPredict(entry, hit,
					hit && entry.Class == trace.ClassCondDirect && dir.Predict(r.PC), rasTarget, rasOK)
				correct := pTaken == r.Taken && (!r.Taken || (pHasTarget && pTarget == r.Target))
				res.record(cls, correct)
				if ev != nil {
					// An indirect jump: the member step reports it to
					// telemetry, in order with the members' outcomes.
					ev.btbTarget = pTarget
					if pTaken && pHasTarget {
						ev.flags |= evPredicted
					}
					if correct {
						ev.flags |= evCorrect
					}
				} else if tel && indirectCls {
					for mi := range members {
						if mem := &members[mi]; mem.tel != nil {
							mem.tel.SetClock(base + int64(i) + 1)
							mem.tel.Indirect(r.PC, 0, pTarget, pTaken && pHasTarget, r.Target, correct)
						}
					}
				}
				if !correct && bits {
					ord := branches - 1
					g.shared[ord>>6] |= 1 << (ord & 63)
				}
			}
			switch {
			case vary:
				g.stepVariants(&r, base+int64(i)+1, entry, bref, hit, count)
			case hit:
				btbT.UpdateHit(bref, &r)
			default:
				btbT.Update(&r)
			}
			if ev != nil {
				if sp.keep {
					events = append(events, e)
					hvals = append(hvals, hv...)
				} else {
					memberStep(g, tcs, ev, hv, count)
				}
			}

			// ---- resolve the shared structures, in Engine.Resolve's
			// order (the target caches train in the member step, on the
			// values read at fetch) ----
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
		}
		insns = base + int64(m)
	}
	if sp.keep {
		g.keepChunk(events, hvals)
	}
	return g.finish(res, branches, insns-start, nil)
}

// finish records a kernel walk's outcome — shared counters res over
// insns records, branches of them branches, stopped by err — and reports
// every member's result.
func (g *gang) finish(res outcomes, branches, insns int64, err error) []AccuracyResult {
	g.res, g.branches, g.insns, g.err = res, branches, insns, err
	return g.results()
}

// keepChunk adds a kept walk's pending events to it as an exactly sized
// chunk.
func (g *gang) keepChunk(events []event, hvals []uint64) {
	if len(events) > 0 {
		g.kept = append(g.kept, eventBuf{slices.Clone(events), slices.Clone(hvals)})
	}
}

// btbEvents recycles the buffers BTB gangs collect events in between two
// stops, so that a BTB gang pass allocates none.
var btbEvents = sync.Pool{New: func() any { return new([]event) }}

// eventBuf is a run of events with, for each, its history values.
type eventBuf struct {
	events []event
	hvals  []uint64
}

// resolveFront trains the RAS and the direction predictor with the
// resolved branch r: Engine.Resolve's first step, and the walk of a BTB
// gang's (gangKernel inlines the same three lines).
func resolveFront(ras *btb.RAS, dir *dirpred.Predictor, r *trace.Record) {
	if r.Class == trace.ClassCall || r.Class == trace.ClassIndCall {
		ras.Push(r.FallThrough())
	}
	if r.Class == trace.ClassReturn {
		ras.Pop()
	}
	if r.Class == trace.ClassCondDirect {
		dir.Update(r.PC, r.Taken)
	}
}

// btbGangKernel is gangKernel's walk for a BTB gang, whose members differ
// only in their BTB: the walk trains the shared RAS and direction
// predictor and emits every branch as an event carrying their verdicts
// at its fetch, from which the member loop has each member's own BTB
// predict and train (a member that runs on another's BTB has none). It
// is a loop of its own so that the walk every other gang runs stays as
// lean.
func btbGangKernel(ctx context.Context, sp span, g *gang) []AccuracyResult {
	var branches int64
	bs, ras, dir := sp.bs, g.ras, g.dir
	count := !sp.prime
	bits := count && g.bits
	buf := btbEvents.Get().(*[]event)
	events := (*buf)[:0]
	defer btbEvents.Put(buf)
	effEnd := min(max(sp.end, 0), bs.Len())
	start := min(max(sp.start, 0), effEnd)
	insns := start
	if bits {
		g.mask = make(BranchBits, (effEnd-start+63)/64)
	}
	nextPoll := (start/(ctxCheckMask+1) + 1) * (ctxCheckMask + 1)
	nextFlush := int64(math.MaxInt64)
	if fi := sp.flushInterval; fi > 0 {
		nextFlush = (start/fi + 1) * fi
	}
	var r trace.Record
	for bi := int(start / trace.BlockLen); insns < effEnd; bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			runBTBMembers(g, events, count)
			*buf = events
			return g.finish(outcomes{}, branches, insns-start, err)
		}
		base := int64(bi) * trace.BlockLen
		m := min(len(blk.Meta), int(effEnd-base))
		for i := max(int(insns-base), 0); i < m; i++ {
			if n := base + int64(i) + 1; n == nextPoll || n == nextFlush {
				runBTBMembers(g, events, count)
				events = events[:0]
				if n == nextPoll {
					nextPoll += ctxCheckMask + 1
					if err := ctx.Err(); err != nil {
						*buf = events
						return g.finish(outcomes{}, branches, n-start, err)
					}
				}
				if n == nextFlush {
					nextFlush += sp.flushInterval
					g.reset()
				}
			}
			mb := blk.Meta[i]
			r.Class = trace.Class(mb & trace.MetaClassMask)
			if r.Class == trace.ClassOther {
				continue
			}
			r.PC, r.Target, r.Taken = blk.PC[i], blk.Target[i], mb&trace.MetaTaken != 0
			if count {
				branches++
			}
			rasTarget, rasOK := ras.Peek()
			ev := event{pc: r.PC, target: r.Target, btbTarget: rasTarget, n: base + int64(i) + 1, cls: r.Class}
			if r.Taken {
				ev.flags |= evTaken
			}
			if dir.Predict(r.PC) {
				ev.flags |= evDirTaken
			}
			if rasOK {
				ev.flags |= evRASValid
			}
			events = append(events, ev)
			if bits {
				ord := branches - 1
				g.mask[ord>>6] |= 1 << (ord & 63)
			}
			resolveFront(ras, dir, &r)
		}
		insns = base + int64(m)
	}
	runBTBMembers(g, events, count)
	*buf = events
	return g.finish(outcomes{}, branches, insns-start, nil)
}

// reset clears the front end: the shared structures, the variants' RASes
// and, in a BTB gang, every member's BTB. The variants' payloads need no
// reset: the walk's BTB hits only lines allocated since.
func (g *gang) reset() {
	g.ras.Reset()
	g.dir.Reset()
	if g.btb != nil {
		g.btb.Reset()
	}
	for _, s := range g.rases {
		s.Reset()
	}
	for mi := range g.members {
		if b := g.members[mi].btb; b != nil {
			b.Reset()
		}
	}
}

// runBTBMembers is a BTB gang's member loop: each member's own BTB
// predicts every event from the walk's verdicts, is counted, and trains,
// one member over all the events before the next, keeping its BTB hot.
// A member that runs on another's BTB is skipped; results fills it in.
func runBTBMembers(g *gang, evs []event, count bool) {
	bits := count && g.bits
	consulted := g.consulted
	var r trace.Record
	for mi := range g.members {
		m := &g.members[mi]
		if m.on != nil {
			continue
		}
		consulted = g.consulted
		for ei := range evs {
			ev := &evs[ei]
			taken := ev.flags&evTaken != 0
			entry, bref, hit := m.btb.Probe(ev.pc)
			if count {
				pTaken, pTarget, pHasTarget := btbPredict(entry, hit,
					ev.flags&evDirTaken != 0, ev.btbTarget, ev.flags&evRASValid != 0)
				correct := pTaken == taken && (!taken || (pHasTarget && pTarget == ev.target))
				m.record(ev.cls, correct)
				if m.tel != nil && ev.cls.IsTargetCachePredicted() {
					m.tel.SetClock(ev.n)
					m.tel.Indirect(ev.pc, 0, pTarget, pTaken && pHasTarget, ev.target, correct)
				}
				if bits {
					if !correct {
						m.bits = m.bits.Set(consulted)
					}
					consulted++
				}
			}
			r.PC, r.Target, r.Class, r.Taken = ev.pc, ev.target, ev.cls, taken
			if hit {
				m.btb.UpdateHit(bref, &r)
			} else {
				m.btb.Update(&r)
			}
		}
	}
	g.consulted = consulted
}

// stepVariants is the BTB update of a walk with variants, and the
// variants' step: for branch r, instruction n, which the walk fetched
// with the BTB probe (entry, at, hit), it counts the variants'
// predictions when count (predictVariants), trains the walk's BTB, has
// the payloads follow the line it stored r at, and trains the variants'
// RASes. The walk's RAS and direction predictor train after.
func (g *gang) stepVariants(r *trace.Record, n int64, entry btb.Entry, at btb.Hit, hit bool, count bool) {
	if count && (hit && entry.Class.IsIndirect() || r.Class.IsTargetCachePredicted()) {
		g.predictVariants(r, n, entry, at, hit)
	}
	var line int
	if hit {
		g.btb.UpdateHit(at, r)
		line = g.btb.Line(at)
	} else {
		line = g.btb.Update(r)
	}
	if r.Taken {
		for _, p := range g.payloads {
			p.Follow(line, hit, r)
		}
	}
	switch r.Class {
	case trace.ClassCall, trace.ClassIndCall:
		for _, s := range g.rases {
			s.Push(r.FallThrough())
		}
	case trace.ClassReturn:
		for _, s := range g.rases {
			s.Pop()
		}
	}
}

// predictVariants counts each variant's prediction of r where it can
// differ from the walk's BTB-only one — on a hit of an indirect-jump or
// return entry, whose target comes from the update strategy's payload
// or the RAS — and reports it to the variant's collector when r is an
// indirect jump; stepVariants calls it for no other branch. Where the
// walk counted its own prediction of such a branch for every member (no
// target cache consulted), walkApart records it, for the variants'
// results to leave out.
func (g *gang) predictVariants(r *trace.Record, n int64, entry btb.Entry, at btb.Hit, hit bool) {
	apart := hit && entry.Class.IsIndirect()
	tel := r.Class.IsTargetCachePredicted()
	var rasTarget uint64
	rasOK := false
	if hit && entry.Class == trace.ClassReturn {
		rasTarget, rasOK = g.ras.Peek()
	}
	taken, target, ok := btbPredict(entry, hit,
		hit && entry.Class == trace.ClassCondDirect && g.dir.Predict(r.PC), rasTarget, rasOK)
	correct := taken == r.Taken && (!r.Taken || ok && target == r.Target)
	if apart && !(g.consults && entry.Class.IsTargetCachePredicted()) {
		g.walkApart.record(r.Class, correct)
	}
	for i := range g.vars {
		v := &g.vars[i]
		vTarget, vOK, vCorrect := target, ok, correct
		if apart {
			// An indirect or return entry always predicts taken.
			switch {
			case entry.Class == trace.ClassReturn:
				vTarget, vOK = v.ras.Peek()
			case v.payload != nil:
				vTarget = v.payload.Target(g.btb.Line(at))
			}
			vCorrect = r.Taken && vOK && vTarget == r.Target
			v.record(r.Class, vCorrect)
		}
		if tel && v.tel != nil {
			v.tel.SetClock(n)
			v.tel.Indirect(r.PC, 0, vTarget, taken && vOK, r.Target, vCorrect)
		}
	}
}

// memberStep runs every member over one event, whose history values are
// hv: each member's lookup, when the event's prediction consulted the
// target caches, then its training, when it is an indirect jump — Engine
// order, since both touch only the member's own target cache.
func memberStep[TC targetCache](g *gang, tcs []TC, ev *event, hv []uint64, count bool) {
	bits := count && g.bits
	consult := ev.flags&evConsult != 0
	indirectCls := ev.cls == trace.ClassIndJump || ev.cls == trace.ClassIndCall
	for mi := range g.members {
		m := &g.members[mi]
		var ph uint64
		if hist := int(m.hist); hist < len(hv) {
			ph = hv[hist] & m.mask
		}
		if consult {
			// Priming still looks up every member: a tagged cache's
			// Predict ticks replacement state on a hit.
			pTarget, pFromTC := ev.btbTarget, false
			if tgt, ok := tcs[mi].Predict(ev.pc, ph); ok {
				pTarget, pFromTC = tgt, true
			}
			if count {
				// An indirect class is always predicted taken; on a direct
				// branch or return, a stale BTB entry misclassified it as
				// indirect.
				correct := ev.flags&evTaken != 0 && pTarget == ev.target
				m.record(ev.cls, correct)
				if indirectCls {
					if pFromTC {
						m.tcCovered++
					}
					// Accuracy runs have no cycle clock; telemetry events
					// are stamped with the instruction index.
					if m.tel != nil {
						m.tel.SetClock(ev.n)
						m.tel.Indirect(ev.pc, ph, pTarget, true, ev.target, correct)
					}
				}
				if bits && !correct {
					m.bits = m.bits.Set(g.consulted)
				}
			}
		} else if count && m.tel != nil {
			// An indirect jump whose shared prediction the walk counted
			// once.
			m.tel.SetClock(ev.n)
			m.tel.Indirect(ev.pc, ph, ev.btbTarget, ev.flags&evPredicted != 0, ev.target, ev.flags&evCorrect != 0)
		}
		if indirectCls {
			tcs[mi].Update(ev.pc, ph, ev.target)
		}
	}
	if consult && bits {
		g.consulted++
	}
}

// results assembles the per-member results, the variants' last: the
// shared skeleton plus each member's divergence counters — in a BTB gang,
// a member that runs on another's BTB takes that member's counters and
// mispredict bits; a variant's skeleton leaves out the branches it
// counted apart — every member reporting the same instruction count and
// error a solo run stopped at this record would.
func (g *gang) results() []AccuracyResult {
	out := make([]AccuracyResult, len(g.members)+len(g.vars))
	for mi := range g.members {
		m := &g.members[mi]
		if m.on != nil {
			m.outcomes, m.bits = m.on.outcomes, m.on.bits
		}
		r := &out[mi]
		r.Instructions, r.Branches, r.TCCovered, r.Err = g.insns, g.branches, m.tcCovered, g.err
		g.res.add(r)
		m.outcomes.add(r)
	}
	shared := g.res
	for c, n := range g.walkApart {
		shared[c].Predictions -= n.Predictions
		shared[c].Mispredicts -= n.Mispredicts
	}
	for vi := range g.vars {
		r := &out[len(g.members)+vi]
		r.Instructions, r.Branches, r.Err = g.insns, g.branches, g.err
		shared.add(r)
		g.vars[vi].outcomes.add(r)
	}
	return out
}
