package sweep

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Gang planning: within each checkpoint shard, points are grouped by
// (workload, history scheme) into units, in first-seen order, and every
// unit runs fused. btb-family points (no history) form their workload's
// btb gangs: sim.Run runs each as one capture walk with one BTB per
// member, sharing the RAS and direction predictor, which no btb axis
// changes. Every target-cache family rides the paper's baseline
// front end, so a Run walks each workload's capture with that front end
// once (sim.WalkFrontEnd), keeping the records the target caches read,
// and every target-cache unit — singletons included — replays that walk
// (sim.Walk.RunGang) instead of walking the capture again. Units never
// cross shard boundaries — the shard remains the checkpoint/resume unit
// and manifests stay byte-identical at any width. Width 1 runs every
// point direct: its own walk, no kept walk, the reference path.

// TestPointHook, when non-nil, runs just before each point is simulated,
// inside the per-unit recover scope. The fault-injection harness uses it
// to prove a panicking point surfaces as a structured PointError instead
// of killing the sweep.
var TestPointHook func(pointKey string)

// PointError is a panic during point simulation, recovered into a
// structured per-unit error: the sweep stops cleanly (completed shards
// stay checkpointed) instead of crashing the process.
type PointError struct {
	// Keys are the points of the poisoned unit — a fused gang shares one
	// pass, so a panic cannot be attributed more precisely than the unit.
	Keys  []string
	Value any    // the recovered panic value
	Stack string // the panicking goroutine's stack
}

func (e *PointError) Error() string {
	if len(e.Keys) > 1 {
		return fmt.Sprintf("panic in a %d-point gang (%s): %v\n%s",
			len(e.Keys), strings.Join(e.Keys, ", "), e.Value, e.Stack)
	}
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// histShareKey names the history register the point reads: its scheme.
// A kept walk holds one register per scheme at the deepest depth its
// points use, and each point reads its own low HistBits bits of it.
func histShareKey(p Point) string { return p.History }

// gangKey is the grouping key: one workload (one capture) and one history
// scheme; btb points, which have none, group apart from the rest.
func gangKey(p Point) string { return p.Workload + "\x00" + p.History }

// StateBytes estimates the point's in-memory predictor footprint, the
// quantity the auto-width planner budgets: fusing K points holds K
// predictor states live at once.
func (p Point) StateBytes() int64 {
	switch p.Family {
	case "btb":
		// ~5 words per BTB entry (tag, target, class, strategy state, LRU).
		return int64(p.Entries) * 40
	case "tagless":
		cfg, err := p.taglessConfig()
		if err != nil {
			return 0
		}
		return cfg.ApproxStateBytes()
	case "tagged":
		return p.taggedConfig().ApproxStateBytes()
	case "cascaded":
		return p.cascadedConfig().ApproxStateBytes()
	case "ittage":
		return p.ittageConfig().ApproxStateBytes()
	}
	return 0
}

const (
	// gangMemBudget is the soft per-gang predictor-state budget the
	// auto-width planner divides by the gang's largest member.
	gangMemBudget = 64 << 20
	// maxAutoWidth caps automatic gang width. Wider gangs amortize the
	// trace pass further but with diminishing returns once per-member
	// target-cache work dominates, and they enlarge the blast radius of a
	// failing member (the whole gang's pass is discarded). 16 keeps the
	// smoke grid's shards fusing in at most two passes while the kernel's
	// width scaling is still near-linear.
	maxAutoWidth = 16
)

// autoWidth picks a gang width for a bucket of points: the memory budget
// divided by the largest member's predictor state, clamped to
// [1, maxAutoWidth].
func autoWidth(points []Point, idxs []int) int {
	var maxState int64 = 1
	for _, i := range idxs {
		if s := points[i].StateBytes(); s > maxState {
			maxState = s
		}
	}
	w := int(gangMemBudget / maxState)
	if w < 1 {
		w = 1
	}
	if w > maxAutoWidth {
		w = maxAutoWidth
	}
	return w
}

// planUnits groups the points of one shard [lo, hi) into execution units:
// at width 1 one unit per point, otherwise units of at most width points
// grouped by gangKey in first-seen order. width 0 picks a width per group
// automatically.
func planUnits(points []Point, lo, hi, width int) [][]int {
	var units [][]int
	var order []string
	buckets := make(map[string][]int)
	for i := lo; i < hi; i++ {
		if width == 1 {
			units = append(units, []int{i})
			continue
		}
		k := gangKey(points[i])
		if _, ok := buckets[k]; !ok {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], i)
	}
	for _, k := range order {
		idxs := buckets[k]
		w := width
		if w <= 0 {
			w = autoWidth(points, idxs)
		}
		for len(idxs) > 0 {
			n := w
			if n > len(idxs) {
				n = len(idxs)
			}
			units = append(units, idxs[:n])
			idxs = idxs[n:]
		}
	}
	return units
}

// replays reports whether the point replays its workload's kept walk
// (unless width 1 runs it direct): every target-cache point does.
func replays(p Point) bool { return p.Family != "btb" }

// unitCounters reports how a shard's units actually executed. A capture
// walk is a kept front-end walk, a btb-gang walk or a direct point;
// replaying a kept walk walks no capture.
type unitCounters struct {
	fusedGangs   int64 // fused walks: kept front-end walks and btb-gang walks
	fusedPoints  int64 // points simulated from them
	directPoints int64 // points simulated one walk each
	fallbacks    int64 // units the fused kernel refused (ran per point)
}

// walkSet holds, for one Run, each workload's kept front-end walk: the
// first target-cache unit of the workload walks its capture, with a
// register per history scheme its target-cache points read, every
// target-cache unit of it replays that walk, and the last lets it go.
type walkSet struct {
	points  []Point
	budget  int64
	mu      sync.Mutex
	walks   map[string]*keptWalk
	pending map[string]int // target-cache points yet to replay, per workload
}

type keptWalk struct {
	mu   sync.Mutex
	walk *sim.Walk
}

// newWalkSet serves the target-cache points of the shards of points that
// run reports this Run simulates.
func newWalkSet(points []Point, budget int64, shardSize int, run func(si int) bool) *walkSet {
	s := &walkSet{points: points, budget: budget, walks: make(map[string]*keptWalk), pending: make(map[string]int)}
	for lo := 0; lo < len(points); lo += shardSize {
		if !run(lo / shardSize) {
			continue
		}
		for _, p := range points[lo:min(lo+shardSize, len(points))] {
			if replays(p) {
				s.pending[p.Workload]++
			}
		}
	}
	return s
}

// release records that n of workload's target-cache points are done with
// its walk; after the last, the walk is dropped.
func (s *walkSet) release(workload string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending[workload] -= n; s.pending[workload] <= 0 {
		delete(s.walks, workload)
	}
}

// get returns w's kept walk, walking its capture first when no unit has
// yet; walked reports that this call made the walk. A unit that finds
// the walk in progress waits for it. A failed walk is never kept: the
// next unit that needs it walks again.
func (s *walkSet) get(ctx context.Context, w *workload.Workload) (walk *sim.Walk, walked bool, err error) {
	s.mu.Lock()
	kw, ok := s.walks[w.Name]
	if !ok {
		kw = &keptWalk{}
		s.walks[w.Name] = kw
	}
	s.mu.Unlock()

	kw.mu.Lock()
	defer kw.mu.Unlock()
	if kw.walk != nil {
		return kw.walk, false, nil
	}
	// One member per history scheme, at its deepest depth, gives the walk
	// every register the workload's target-cache points read.
	var regs []Point
	deepest := make(map[string]int) // scheme -> index in regs
	for _, p := range s.points {
		if p.Workload != w.Name || !replays(p) {
			continue
		}
		if i, ok := deepest[p.History]; !ok {
			deepest[p.History] = len(regs)
			regs = append(regs, p)
		} else if p.HistBits > regs[i].HistBits {
			regs[i] = p
		}
	}
	pts := make([]sim.GangPoint, len(regs))
	for i, p := range regs {
		cfg, err := p.SimConfig()
		if err != nil {
			return nil, false, err
		}
		pts[i] = sim.GangPoint{Config: cfg, HistShare: histShareKey(p)}
	}
	if kw.walk, err = sim.WalkFrontEnd(ctx, w.Replay(s.budget), s.budget, pts); err != nil {
		return nil, false, err
	}
	return kw.walk, true, nil
}

// runUnit simulates one planned unit: a direct point (width 1, or a lone
// btb point), a btb gang, or target-cache points replaying their
// workload's kept walk; walks is nil at width 1. Panics anywhere inside —
// predictor construction, the kernel, a fault-injection hook — are
// recovered into a *PointError naming the unit's points. On error, key
// names the failing point (or the unit's first point).
func runUnit(ctx context.Context, w *workload.Workload, points []Point, idxs []int, budget int64, walks *walkSet, c *unitCounters) (rs []Result, key string, err error) {
	defer func() {
		if v := recover(); v != nil {
			pe := &PointError{Value: v, Stack: string(debug.Stack())}
			for _, i := range idxs {
				pe.Keys = append(pe.Keys, points[i].Key())
			}
			rs, key, err = nil, pe.Keys[0], pe
		}
	}()

	runDirect := func() ([]Result, string, error) {
		out := make([]Result, 0, len(idxs))
		for _, i := range idxs {
			p := points[i]
			if TestPointHook != nil {
				TestPointHook(p.Key())
			}
			r, err := runPoint(ctx, w, p, budget)
			if err != nil {
				return nil, p.Key(), err
			}
			c.directPoints++
			out = append(out, r)
		}
		return out, "", nil
	}

	first := points[idxs[0]]
	replay := walks != nil && replays(first)
	if !replay && len(idxs) == 1 {
		return runDirect()
	}

	gang := make([]sim.GangPoint, len(idxs))
	bits := make([]int, len(idxs))
	for gi, i := range idxs {
		p := points[i]
		if TestPointHook != nil {
			TestPointHook(p.Key())
		}
		cfg, err := p.SimConfig()
		if err != nil {
			return nil, p.Key(), err
		}
		if bits[gi], err = p.StorageBits(); err != nil {
			return nil, p.Key(), err
		}
		gang[gi] = sim.GangPoint{Config: cfg, HistShare: histShareKey(p)}
	}
	var res []sim.AccuracyResult
	var refused error
	if replay {
		walk, walked, err := walks.get(ctx, w)
		if err != nil {
			return nil, first.Key(), err
		}
		if walked {
			c.fusedGangs++
		}
		res, refused = walk.RunGang(ctx, gang)
		walks.release(w.Name, len(idxs))
	} else if res, refused = sim.Run(ctx, w.Replay(budget), sim.Options{Budget: budget}, gang); refused == nil {
		c.fusedGangs++
	}
	if refused != nil {
		c.fallbacks++
		return runDirect()
	}
	out := make([]Result, len(idxs))
	for gi, i := range idxs {
		var err error
		if out[gi], err = newResult(points[i], bits[gi], res[gi]); err != nil {
			return nil, points[i].Key(), err
		}
	}
	c.fusedPoints += int64(len(idxs))
	return out, "", nil
}

// GangPlan describes the planned execution of one workload's points, for
// -expand: the capture walks the sweep will make and how many points each
// serves.
type GangPlan struct {
	Workload string
	// Gangs[w] counts the capture walks over w points each: btb gangs,
	// and at w = 1 points run direct.
	Gangs map[int]int
	// Replays[w] counts the target-cache units of w points that replay
	// the workload's kept front-end walk, which is one more walk.
	Replays map[int]int
	// Points/Passes summarize: Points simulations in Passes capture walks.
	Points, Passes int
	// MaxStateBytes is the largest single unit's summed predictor state —
	// the planner's memory-footprint prediction.
	MaxStateBytes int64
}

// PlanGangs simulates the engine's unit planning over a full expansion
// (shard by shard, exactly as Run schedules it) and summarizes per
// workload, preserving workload first-appearance order. Its Passes sum to
// the FusedGangs + DirectPoints a fresh Run of the points reports.
func PlanGangs(points []Point, shardSize, width int) []GangPlan {
	if shardSize <= 0 {
		shardSize = defaultShardSize
	}
	byWorkload := make(map[string]*GangPlan)
	var order []string
	n := len(points)
	for lo := 0; lo < n; lo += shardSize {
		hi := lo + shardSize
		if hi > n {
			hi = n
		}
		for _, unit := range planUnits(points, lo, hi, width) {
			p := points[unit[0]]
			plan, ok := byWorkload[p.Workload]
			if !ok {
				plan = &GangPlan{Workload: p.Workload, Gangs: make(map[int]int), Replays: make(map[int]int)}
				byWorkload[p.Workload] = plan
				order = append(order, p.Workload)
			}
			plan.Points += len(unit)
			if width != 1 && replays(p) {
				if len(plan.Replays) == 0 {
					plan.Passes++ // the kept walk
				}
				plan.Replays[len(unit)]++
			} else {
				plan.Gangs[len(unit)]++
				plan.Passes++
			}
			var state int64
			for _, i := range unit {
				state += points[i].StateBytes()
			}
			if state > plan.MaxStateBytes {
				plan.MaxStateBytes = state
			}
		}
	}
	out := make([]GangPlan, 0, len(order))
	for _, wl := range order {
		out = append(out, *byWorkload[wl])
	}
	return out
}
