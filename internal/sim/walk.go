package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Kept front-end walks. A design-space sweep runs hundreds of target-cache
// configurations over each capture, all on the paper's baseline front
// end, and a fused gang of them spends about half its pass re-running
// that front end — BTB, RAS, direction predictor, history registers — over
// the same records the previous gang walked. Those structures train only
// on the resolved record stream (gang.go), so their state at every record
// is the same for every gang. A Walk runs the kernel's walk once and keeps
// what the members read: the counters of the predictions that consulted
// no target cache, and the events — every record whose prediction
// consults, or whose resolution trains, a target cache (about 2% of a
// capture's records) — each with its history registers' values.
// RunGang then runs a gang's members through only the kernel's member
// step over those events: besides Run, the one way to run members.
//
// Each event costs ~40 bytes plus 8 per history register, stored in
// exactly sized chunks, one per context-poll interval. Members with one
// HistShare key read one register: the deepest of theirs, each member its
// own low bits. That is exact for pattern and path history, whose n-bit
// value is the low n bits of the same register at any greater depth.
// TestWalkMatchesEngine pins every member of a replayed gang to the
// streaming Engine loop.

// Walk is one kept walk of a capture's front end; it is immutable, and
// any number of RunGang calls may read it concurrently.
type Walk struct {
	front  Config           // the walked front end (its BTB, RAS depth and direction predictor)
	regs   map[string]int32 // HistShare key -> register index
	depths []int            // each register's depth in bits
	// res counts the predictions no target cache supplies, over branches
	// branches in insns records.
	res             outcomes
	branches, insns int64
	// chunks are the events, one exactly sized chunk per context-poll
	// interval of the capture, each event with len(depths) history
	// values.
	chunks []eventBuf
}

// WalkFrontEnd walks factory's first budget instructions once with the
// front end pts share — BTB, RAS depth and direction predictor — and one
// history register per distinct HistShare key among the members that
// carry a target cache, at the deepest of the key's depths. It builds no
// target cache. The returned Walk serves RunGang for any gang over that
// front end whose members' keys and depths it covers.
//
// It fails when pts is empty, disagree on the front end, or hold a target
// cache without a HistShare key; when factory exposes no decoded
// BlockSource; and with the kernel's error when the capture cannot be
// read to the budget (wrapping trace.ErrCorrupt) or ctx is cancelled. A
// failed walk keeps nothing.
func WalkFrontEnd(ctx context.Context, factory trace.Factory, budget int64, pts []GangPoint) (*Walk, error) {
	if len(pts) == 0 {
		return nil, errors.New("sim: a front-end walk needs a member")
	}
	bs, ok := factory.(trace.BlockSource)
	if !ok {
		return nil, errors.New("sim: a front-end walk needs a decoded block source")
	}
	front := pts[0].Config
	g := newFrontEnd(front)
	g.consults = true
	regs := make(map[string]int32)
	for _, pt := range pts {
		cfg := pt.Config
		if !sameFrontEnd(cfg, front) {
			return nil, errors.New("sim: a front-end walk's members must share its front end")
		}
		if cfg.NewTargetCache == nil {
			continue
		}
		if pt.HistShare == "" {
			return nil, errors.New("sim: a front-end walk's target-cache members need a HistShare key")
		}
		g.register(pt, regs)
	}

	g.run(ctx, span{bs: bs, end: budget, keep: true})
	if g.err != nil {
		return nil, g.err
	}
	w := &Walk{
		front:    front,
		regs:     regs,
		depths:   make([]int, len(g.providers)),
		res:      g.res,
		branches: g.branches,
		insns:    g.insns,
		chunks:   g.kept,
	}
	for i, p := range g.providers {
		w.depths[i] = p.Len()
	}
	return w, nil
}

// sameFrontEnd reports whether a and b configure the same BTB, RAS and
// direction predictor.
func sameFrontEnd(a, b Config) bool {
	return a.BTB == b.BTB && a.RASDepth == b.RASDepth && a.Dir == b.Dir
}

// RunGang runs the members of pts over w's kept events and returns one
// AccuracyResult per member, in order, each struct-identical to what Run
// reports for that member alone over the walked capture and budget. A
// member may be the BTB-only baseline and may carry a telemetry
// collector, which receives exactly the events a solo run would give it.
//
// It returns an error naming the reason, and runs nothing, when w cannot
// serve the gang: it is empty, a member's front end is not the walk's, a
// member asks for mispredict bits, or a member's history is not one w
// walked (its HistShare key names no register of w, or it is deeper than
// the register). ctx is polled as the kernel polls it; a cancelled replay
// reports ctx's error in every result, over partial counters.
func (w *Walk) RunGang(ctx context.Context, pts []GangPoint) ([]AccuracyResult, error) {
	if len(pts) == 0 {
		return nil, errors.New("sim: a walk's replay needs a member")
	}
	g := &gang{
		members:  make([]gangMember, len(pts)),
		tcs:      make([]core.TargetCache, len(pts)),
		res:      w.res,
		branches: w.branches,
		insns:    w.insns,
	}
	for i, pt := range pts {
		cfg := pt.Config
		if !sameFrontEnd(cfg, w.front) {
			return nil, fmt.Errorf("sim: member %d's front end is not the walk's", i)
		}
		if pt.Mispredicts != nil {
			return nil, fmt.Errorf("sim: member %d asks for mispredict bits, which a walk's replay does not record", i)
		}
		m := &g.members[i]
		m.tel = cfg.Telemetry
		m.hist = int32(len(w.depths))
		if cfg.NewTargetCache == nil {
			continue
		}
		if cfg.NewHistory == nil {
			panic("sim: target cache configured without a history")
		}
		idx, ok := w.regs[pt.HistShare]
		depth := cfg.NewHistory().Len()
		if !ok || depth > w.depths[idx] {
			return nil, fmt.Errorf("sim: member %d's history (key %q, %d bits) is not one the walk kept", i, pt.HistShare, depth)
		}
		m.hist, m.mask = idx, readMask(depth, w.depths[idx])
	}
	for i, pt := range pts {
		if newTC := pt.Config.NewTargetCache; newTC != nil {
			g.tcs[i] = newTC()
		} else {
			g.tcs[i] = noTC{}
		}
	}
	return g.run(ctx, span{walk: w}), nil
}

// replayWalk runs g's members over w's events, polling ctx before each
// chunk, as the walk polled it.
func replayWalk[TC targetCache](ctx context.Context, w *Walk, g *gang, tcs []TC) []AccuracyResult {
	for _, c := range w.chunks {
		if err := ctx.Err(); err != nil {
			g.err = err
			break
		}
		nh := len(w.depths)
		for ei := range c.events {
			memberStep(g, tcs, &c.events[ei], c.hvals[ei*nh:ei*nh+nh], true)
		}
	}
	return g.results()
}
