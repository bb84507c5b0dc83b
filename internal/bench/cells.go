package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btb"
	"repro/internal/cpu"
	"repro/internal/dirpred"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Cell scheduling: every experiment decomposes into independent simulation
// cells. A cell's work is any number of accuracy and timing runs — each a
// pure function of a memoized replay, a predictor configuration and, for
// a timing run, a machine — plus, for a cell that replays the CBT or
// scans trace statistics, a pass of its own. Experiments enqueue cells
// into a cellGroup; run then fuses the runs of all the group's cells that
// share a workload, a budget, a flush interval and a front end (BTB
// config, RAS depth, direction-predictor config) into one gang pass
// (sim.Run), so K configurations cost one trace pass instead of K. A
// BTB-only accuracy run needs less: it rides the first pass of its
// workload, budget, flush interval, BTB geometry and direction predictor
// as a front-end variant, whatever its BTB update strategy and RAS depth
// (the pass key without those two), so ras walks each program once for
// its seven depths and table2 once for both strategies. A timing run is
// a gang member that also records its per-branch mispredict bits, and
// always shares its gang's exact front end. On the fast model the gang's
// timing runs on one machine then share one pipeline pass
// (cpu.RunPipeline) that times the capture from those bits, its members
// sharing simulated lanes while their pipelines agree up to a time shift
// (when there would be fewer pipeline passes than workers, each splits
// into chunks of consecutive runs, so every worker times one). On the
// event model each timing run gets an event pass of its own
// (cpu.RunEvent), which times the capture from its bits on the
// event-driven model. run executes the gangs and the other passes on a
// bounded worker pool. Passes form in first-seen order: cells in enqueue
// order, a cell's runs in run order, then its own pass, with BTB-only
// accuracy runs placed after all of them, so each joins its gang after
// the runs on the gang's exact front end and opens one only when no such
// gang exists; pipeline passes, then event passes, follow all others, in
// first-seen order, each waiting for its gang. A group of one run is a
// solo run. The experiment renders its tables from the results in
// enqueue order; because rendering is serial and positional and every
// gang member gets exactly its solo result, the output is byte-identical
// at any worker count, including 1.
//
// Per cell, fusion is invisible:
//
//   - TestCellHook fires once per cell label, before any pass of that
//     cell runs: the first of its passes to start fires it, and the others
//     wait for it.
//   - A cell whose hook panics (or whose context is already cancelled)
//     fails alone, and its passes run without it. A kernel error (corrupt
//     replay, cancellation) or a panic inside a fused pass fails every
//     cell with a run in that pass. A timing run's kernel error surfaces
//     from its pipeline or event pass. A pipeline pass fails the same way
//     as a gang: a panic or a miss pass error fails every timing run of
//     the pass, and a kernel error stops every member still running, so
//     it too fails every timing run of the pass. A cell with runs in
//     several passes reports the first failure in its own order —
//     admission, its runs in run order, its own pass — so failure footers
//     do not depend on scheduling.
//   - Every run gets a telemetry collector of its own, merged once the
//     group has run under its cell's key, cells in enqueue order and a
//     cell's runs in run order up to its first failed run: the merges the
//     cell would make running its runs one after another.
//   - RunStats counts every cell once, every fused pass that ran once,
//     and every run's instructions.
//
// The experiment renders the failed cells' rows as ERR, appends a failure
// footer, and every other cell's output is unchanged. Failure footers
// list cells in enqueue order, so they too are byte-identical at any
// worker count.

// TestCellHook, when non-nil, runs once per cell, before the cell's first
// pass, with the cell's "experiment/workload/config" label. It exists for
// the fault-injection harness (internal/faultinject), which uses it to
// panic, delay, or block inside chosen cells. Set it only from tests, and
// only while no experiments are running.
var TestCellHook func(label string)

// cellID labels one simulation cell within an experiment.
type cellID struct {
	Workload string
	Config   string
}

// cid builds a cellID for a workload/configuration pair.
func cid(w *workload.Workload, config string) cellID {
	return cellID{Workload: w.Name, Config: config}
}

func (id cellID) String() string {
	switch {
	case id.Workload == "":
		return id.Config
	case id.Config == "":
		return id.Workload
	default:
		return id.Workload + "/" + id.Config
	}
}

// groupCell is one enqueued cell.
type groupCell struct {
	id   cellID
	fn   func(Params) // the cell's own pass; nil when its work is runs only
	runs []*simRun    // in run order

	admitted sync.Once
	hookErr  *CellError // cancelled before it started, or its hook panicked
	fnErr    *CellError // its own pass failed
	cerr     *CellError // the cell's outcome, resolved once the group has run
}

// ok reports whether the cell completed without error.
func (c *groupCell) ok() bool { return c.cerr == nil }

// simRun is one enqueued run: an accuracy run, or a timing run on a
// machine.
type simRun struct {
	cell    *groupCell
	w       *workload.Workload
	flush   int64
	cfg     sim.Config
	machine *cpu.Config        // a timing run's machine; nil for an accuracy run
	res     sim.AccuracyResult // an accuracy run's result
	timed   cpu.Result         // a timing run's result
	// pass is a fast timing run's predictor pass, which its gang fills
	// and its pipeline pass consumes.
	pass *cpu.Pass
	col  *telemetry.Collector // the run's collector, once it joined a pass
	err  *CellError
}

// slot holds one cell's result; the cell's status says whether the
// result is trustworthy.
type slot[T any] struct {
	*groupCell
	val T
}

type cellGroup struct {
	workers    int
	experiment string
	p          Params
	cells      []*groupCell
	errs       []*CellError // failures from completed runs, enqueue order
}

func newCellGroup(p Params) *cellGroup {
	return &cellGroup{workers: p.workers(), experiment: p.experiment, p: p}
}

// add enqueues a cell under id whose own pass is fn (nil for none). The
// pass receives a Params copy minted for the cell (so kernels can
// attribute telemetry). Cells must not depend on each other's results.
func (g *cellGroup) add(id cellID, fn func(Params)) *groupCell {
	c := &groupCell{id: id, fn: fn}
	g.cells = append(g.cells, c)
	return c
}

// cell enqueues fn as a cell's own pass under id and returns the slot its
// result lands in once run returns.
func cell[T any](g *cellGroup, id cellID, fn func(Params) T) *slot[T] {
	s := &slot[T]{}
	s.groupCell = g.add(id, func(p Params) { s.val = fn(p) })
	return s
}

// accuracy enqueues one accuracy run of cfg over w's memoized capture for
// cell c, with every structure reset each flush instructions (0: never).
// It is the only way an experiment runs the accuracy model: run fuses it
// with the group's other runs that share its workload, budget, flush
// interval and front end. The result is valid once the group has run, if
// c is ok.
func (c *groupCell) accuracy(w *workload.Workload, flush int64, cfg sim.Config) *sim.AccuracyResult {
	r := &simRun{cell: c, w: w, flush: flush, cfg: cfg}
	c.runs = append(c.runs, r)
	return &r.res
}

// timing enqueues one timing run of cfg on machine mc over w's memoized
// capture for cell c. It is the only way an experiment runs a timing
// model over a capture: a member of the gang run fuses for the group's
// timing runs sharing w and cfg's front end, then, on the event model
// when the group's Params ask for it, an event pass of its own, and on
// the fast model, a member of the pipeline pass of that gang's timing
// runs on mc. The result is valid once the group has run, if c is ok.
func (c *groupCell) timing(w *workload.Workload, cfg sim.Config, mc cpu.Config) *cpu.Result {
	r := &simRun{cell: c, w: w, cfg: cfg, machine: &mc}
	c.runs = append(c.runs, r)
	return &r.timed
}

// accuracyCell enqueues a cell under id whose work is one accuracy run
// (see accuracy); its slot holds the run's result.
func accuracyCell(g *cellGroup, id cellID, w *workload.Workload, flush int64, cfg sim.Config) *slot[*sim.AccuracyResult] {
	c := g.add(id, nil)
	return &slot[*sim.AccuracyResult]{c, c.accuracy(w, flush, cfg)}
}

// timingCell enqueues a cell under id whose work is one timing run (see
// timing); its slot holds the run's result.
func timingCell(g *cellGroup, id cellID, w *workload.Workload, cfg sim.Config, mc cpu.Config) *slot[*cpu.Result] {
	c := g.add(id, nil)
	return &slot[*cpu.Result]{c, c.timing(w, cfg, mc)}
}

// passKey identifies the runs one fused pass serves: one decoded stream
// and budget, one flush schedule and one shared front end.
type passKey struct {
	workload string
	budget   int64
	flush    int64
	btb      btb.Config
	ras      int
	dir      dirpred.Config
}

// ride is the key of the passes a BTB-only accuracy run with key k can
// ride as a variant (sim.Run): k without the BTB update strategy and the
// RAS depth.
func (k passKey) ride() passKey {
	k.btb.Strategy, k.ras = 0, 0
	return k
}

// pass is one work item on the pool: a cell's own pass, a fused gang over
// runs, or, once gang has run, the pipeline pass of the gang's timing
// runs on one machine or the event pass of one of its timing runs.
type pass struct {
	cell   *groupCell
	runs   []*simRun     // a gang's runs, or a pipeline pass's timing runs
	budget int64         // a gang's budget
	done   chan struct{} // a gang's: closed once it has run
	timed  *simRun       // an event pass's timing run
	gang   *pass         // a pipeline or event pass's gang
}

// pipeKey identifies the timing runs one pipeline pass times: one gang's
// runs on one machine.
type pipeKey struct {
	gang    *pass
	machine cpu.Config
}

// plan groups the cells' work into passes, in first-seen order, with the
// pipeline passes, then the event passes, last: a worker that waits on a
// gang then waits on one another worker has already taken, because the
// pool hands out passes in order. A pipeline pass times one gang's fast
// timing runs on one machine, an event pass one event-model timing run.
// BTB-only accuracy runs are placed after every other run: each rides the
// first gang of its ride key, after that gang's runs on the exact front
// end, or, when there is none, opens a gang after all the others.
func plan(cells []*groupCell, p Params) []*pass {
	var passes, pipes, events []*pass
	var riders []*simRun
	fused := make(map[passKey]*pass)
	rides := make(map[passKey]*pass)
	piped := make(map[pipeKey]*pass)
	gang := func(k passKey) *pass {
		ps := &pass{budget: k.budget, done: make(chan struct{})}
		passes = append(passes, ps)
		if rides[k.ride()] == nil {
			rides[k.ride()] = ps
		}
		return ps
	}
	for _, c := range cells {
		for _, r := range c.runs {
			if r.machine == nil && r.cfg.NewTargetCache == nil {
				riders = append(riders, r)
				continue
			}
			budget := p.AccuracyBudget
			if r.machine != nil {
				budget = p.TimingBudget
			}
			k := passKey{r.w.Name, budget, r.flush, r.cfg.BTB, r.cfg.RASDepth, r.cfg.Dir}
			ps := fused[k]
			if ps == nil {
				ps = gang(k)
				fused[k] = ps
			}
			ps.runs = append(ps.runs, r)
			if r.machine == nil {
				continue
			}
			if p.EventModel {
				events = append(events, &pass{gang: ps, timed: r})
				continue
			}
			pk := pipeKey{ps, *r.machine}
			pp := piped[pk]
			if pp == nil {
				pp = &pass{gang: ps}
				piped[pk] = pp
				pipes = append(pipes, pp)
			}
			pp.runs = append(pp.runs, r)
		}
		if c.fn != nil {
			passes = append(passes, &pass{cell: c})
		}
	}
	for _, r := range riders {
		k := passKey{r.w.Name, p.AccuracyBudget, r.flush, r.cfg.BTB, r.cfg.RASDepth, r.cfg.Dir}
		ps := rides[k.ride()]
		if ps == nil {
			ps = gang(k)
		}
		ps.runs = append(ps.runs, r)
	}
	// With fewer pipeline passes than workers a worker would idle while
	// one pass times a whole group, so each group splits into
	// ceil(workers/passes) chunks of consecutive runs, as gangs split
	// into segments: every worker still times a fused chunk.
	if n, w := len(pipes), p.workers(); n > 0 && n < w {
		k := (w + n - 1) / n
		var chunks []*pass
		for _, pp := range pipes {
			for i := range k {
				if lo, hi := i*len(pp.runs)/k, (i+1)*len(pp.runs)/k; lo < hi {
					chunks = append(chunks, &pass{gang: pp.gang, runs: pp.runs[lo:hi]})
				}
			}
		}
		pipes = chunks
	}
	return append(append(passes, pipes...), events...)
}

// planSegments resolves intra-pass segmentation for a plan: with fewer
// passes that can start at once (gangs and cells) than workers, fused
// passes split their captures so the idle workers help the critical path.
// Pipeline and event passes do not count: they only wait for their
// gangs. Resolving per plan (not per pass) makes the count depend only on
// the queue, never on scheduling order.
func (p Params) planSegments(passes []*pass) int {
	startable := 0
	for _, ps := range passes {
		if ps.gang == nil {
			startable++
		}
	}
	return p.cellSegments(startable)
}

// run executes all enqueued cells, at most g.workers passes at a time,
// and clears the queue. It returns only when every pass has finished;
// failures are appended to g.errs in enqueue order.
func (g *cellGroup) run() {
	cells := g.cells
	g.cells = nil
	cellsExecuted.Add(int64(len(cells)))
	passes := plan(cells, g.p)
	g.p.segs = g.p.planSegments(passes)
	pool.Run(g.workers, len(passes), func(i int) { g.exec(passes[i]) })
	for _, c := range cells {
		p := g.p.forCell(c.id)
		for _, r := range c.runs {
			p.mergeCollector(r.col)
			if r.err != nil {
				break
			}
		}
		c.cerr = c.firstErr()
		if c.cerr == nil {
			continue
		}
		g.errs = append(g.errs, c.cerr)
		g.p.Telemetry.CellFailed()
		if c.cerr.Stack != "" {
			// A raw panic (not a structured abortCell) was contained.
			g.p.Telemetry.CellRecovered()
		}
	}
	if g.p.fails != nil {
		g.p.fails.add(g.errs...)
	}
}

// firstErr is the cell's first failure in its own order: admission, its
// runs in run order, its own pass.
func (c *groupCell) firstErr() *CellError {
	if c.hookErr != nil {
		return c.hookErr
	}
	for _, r := range c.runs {
		if r.err != nil {
			return r.err
		}
	}
	return c.fnErr
}

// exec runs one pass.
func (g *cellGroup) exec(ps *pass) {
	if ps.gang != nil {
		<-ps.gang.done
	}
	start := time.Now()
	defer func() { g.p.Telemetry.AddBusy(time.Since(start)) }()
	switch {
	case ps.cell != nil:
		if g.admit(ps.cell) {
			ps.cell.fnErr = g.capture(ps.cell.id, func() { ps.cell.fn(g.p.forCell(ps.cell.id)) })
		}
	case ps.timed != nil:
		g.event(ps.timed)
	case ps.gang != nil:
		g.pipeline(ps.runs)
	default:
		defer close(ps.done)
		g.fused(ps.runs, ps.budget)
	}
}

// admit starts cell c exactly once, before the first of its passes: an
// already cancelled context or a panicking TestCellHook fails the cell
// before any of its work runs. It reports whether the cell may run.
func (g *cellGroup) admit(c *groupCell) bool {
	c.admitted.Do(func() {
		g.p.Telemetry.CellStarted()
		c.hookErr = g.capture(c.id, func() {
			if err := g.p.Context().Err(); err != nil {
				abortCell(err)
			}
			if hook := TestCellHook; hook != nil {
				hook((&CellError{Experiment: g.experiment, Workload: c.id.Workload, Config: c.id.Config}).CellLabel())
			}
		})
	})
	return c.hookErr == nil
}

// fused runs the runs of every admitted cell among runs as one gang over
// their shared capture. A kernel error fails the accuracy runs it
// stopped, and reaches a timing run through its pipeline pass; a panic
// fails every run of the pass.
func (g *cellGroup) fused(runs []*simRun, budget int64) {
	var live []*simRun
	for _, r := range runs {
		if g.admit(r.cell) {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	passesRun.Add(1)
	pts := make([]sim.GangPoint, len(live))
	for i, r := range live {
		r.col = g.p.startCollector()
		pts[i].Config = r.cfg
		pts[i].Config.Telemetry = r.col
		if r.machine != nil {
			r.pass = &cpu.Pass{Tel: r.col}
			pts[i].Mispredicts = &r.pass.Mispredicts
		}
	}
	w, flush := live[0].w, live[0].flush
	perr := g.capture(cellID{}, func() {
		opts := sim.Options{Budget: budget, FlushInterval: flush, Segments: g.p.segs}
		res, err := sim.Run(g.p.Context(), w.ReplayPrefix(budget, g.p.shareBudget()), opts, pts)
		if err != nil {
			abortCell(fmt.Errorf("bench: a fused pass of %d run(s) on %s: %w", len(pts), w.Name, err))
		}
		for i, r := range live {
			if r.machine != nil {
				r.pass.Instructions, r.pass.Err = res[i].Instructions, res[i].Err
				continue
			}
			r.res = res[i]
			instructionsSim.Add(res[i].Instructions)
			if res[i].Err != nil {
				r.err = g.cellError(r.cell.id, res[i].Err, "")
			}
		}
	})
	if perr != nil {
		for _, r := range live {
			r.err = g.cellError(r.cell.id, perr.Err, perr.Stack)
		}
	}
}

// pipeline times the fast timing runs of one gang on one machine, those
// whose predictor pass the gang left, in one pipeline pass, then drops
// their mispredict bits. A run the pipeline reports an error for fails
// its cell; a failure of the pass itself (its miss bits, a panic) fails
// every run of the pass.
func (g *cellGroup) pipeline(runs []*simRun) {
	var live []*simRun
	var passes []cpu.Pass
	for _, r := range runs {
		if r.pass != nil && r.err == nil {
			live, passes = append(live, r), append(passes, *r.pass)
		}
		r.pass = nil
	}
	if len(live) == 0 {
		return
	}
	ctx, budget, w, mc := g.p.Context(), g.p.TimingBudget, live[0].w, *live[0].machine
	bs := w.ReplayPrefix(budget, g.p.shareBudget())
	perr := g.capture(cellID{}, func() {
		misses, err := dcacheMisses(ctx, w.Name, bs, budget, mc)
		if err != nil {
			abortCell(err)
		}
		for i, res := range cpu.RunPipeline(ctx, mc, bs, misses, passes) {
			r := live[i]
			r.timed = res
			instructionsSim.Add(res.Instructions)
			if res.Err != nil {
				r.err = g.cellError(r.cell.id, res.Err, "")
			}
		}
	})
	if perr != nil {
		for _, r := range live {
			r.err = g.cellError(r.cell.id, perr.Err, perr.Stack)
		}
	}
}

// event times an event-model timing run, if its gang left its predictor
// pass, on the event-driven model over the memoized capture, then drops
// its mispredict bits. Any failure fails the run's cell.
func (g *cellGroup) event(r *simRun) {
	ps := r.pass
	r.pass = nil
	if ps == nil || r.err != nil {
		return
	}
	ctx, budget, mc := g.p.Context(), g.p.TimingBudget, *r.machine
	bs := r.w.ReplayPrefix(budget, g.p.shareBudget())
	r.err = g.capture(r.cell.id, func() {
		misses, err := dcacheMisses(ctx, r.w.Name, bs, budget, mc)
		if err != nil {
			abortCell(err)
		}
		r.timed = cpu.RunEvent(ctx, mc, bs, misses, *ps)
		instructionsSim.Add(r.timed.Instructions)
		if r.timed.Err != nil {
			abortCell(r.timed.Err)
		}
	})
}

// missMemo holds the data-cache miss bits of each capture a timing run
// reads, per cache geometry. They are a pure function of the
// capture's loads and stores, so every member and machine of every timing
// experiment with that cache shares one computation. An entry is keyed by
// workload and budget and remembers the capture it was computed over, so
// a capture replaced after workload.ResetMemo is recomputed; failures are
// not kept.
var (
	missMu   sync.Mutex
	missMemo = map[missKey]*missEntry{}
)

type missKey struct {
	workload          string
	budget            int64
	bytes, ways, line int
}

type missEntry struct {
	once   sync.Once
	bs     trace.BlockSource
	misses *cpu.Misses
	err    error
}

// dcacheMisses returns the miss bits of bs, w's capture for budget, under
// mc's data cache, computing them at most once per capture and geometry.
func dcacheMisses(ctx context.Context, w string, bs trace.BlockSource, budget int64, mc cpu.Config) (*cpu.Misses, error) {
	k := missKey{w, budget, mc.DCacheBytes, mc.DCacheWays, mc.DCacheLine}
	missMu.Lock()
	e := missMemo[k]
	if e == nil || e.bs != bs {
		e = &missEntry{bs: bs}
		missMemo[k] = e
	}
	missMu.Unlock()
	e.once.Do(func() { e.misses, e.err = cpu.DCacheMisses(ctx, mc, bs, budget) })
	if e.err != nil {
		missMu.Lock()
		if missMemo[k] == e {
			delete(missMemo, k)
		}
		missMu.Unlock()
	}
	return e.misses, e.err
}

// capture runs f, converting a panic or an abortCell into a CellError
// labelled with id.
func (g *cellGroup) capture(id cellID, f func()) (cerr *CellError) {
	defer func() {
		if v := recover(); v != nil {
			err, stack := recoveredErr(v)
			cerr = g.cellError(id, err, stack)
		}
	}()
	f()
	return nil
}

func (g *cellGroup) cellError(id cellID, err error, stack string) *CellError {
	return &CellError{Experiment: g.experiment, Workload: id.Workload, Config: id.Config, Err: err, Stack: stack}
}

// finish appends the experiment's failure footer (as notes on the last
// table, so it survives text and JSON rendering) and returns the tables.
// With no failures it is the identity, so healthy experiments render
// exactly as before.
func (g *cellGroup) finish(tables []*stats.Table) []*stats.Table {
	if len(g.errs) == 0 || len(tables) == 0 {
		return tables
	}
	t := tables[len(tables)-1]
	t.AddNote("%d cell(s) failed; affected entries render as ERR", len(g.errs))
	for _, ce := range g.errs {
		t.AddNote("ERR %s: %v", ce.CellLabel(), ce.Err)
	}
	return tables
}

// ---- ERR-aware render helpers ----

// pctCell renders a percentage slot, or ERR when its cell failed.
func pctCell(s *slot[float64]) string {
	if !s.ok() {
		return "ERR"
	}
	return pct(s.val)
}

// rateCell renders an accuracy slot's indirect misprediction rate, or ERR
// when its cell failed.
func rateCell(s *slot[*sim.AccuracyResult]) string {
	if !s.ok() {
		return "ERR"
	}
	return pct(s.val.IndirectMispredictRate())
}

// errRow returns n "ERR" columns for a row whose backing cell failed.
func errRow(n int) []string {
	row := make([]string, n)
	for i := range row {
		row[i] = "ERR"
	}
	return row
}

// ---- process-wide counters (the perf measurement hook) ----

var (
	cellsExecuted   atomic.Int64
	passesRun       atomic.Int64
	instructionsSim atomic.Int64
)

// RunStats counts simulation work done process-wide; tcsim diffs snapshots
// around each experiment for its stderr summary and bench snapshots.
type RunStats struct {
	// Cells is the number of simulation cells executed.
	Cells int64
	// Passes is the number of fused accuracy passes run (sim.Run gangs,
	// each one capture walk however many runs it serves).
	Passes int64
	// Instructions is the number of instructions pushed through the
	// accuracy and timing simulators.
	Instructions int64
}

// SnapshotStats returns the current counter values.
func SnapshotStats() RunStats {
	return RunStats{Cells: cellsExecuted.Load(), Passes: passesRun.Load(), Instructions: instructionsSim.Load()}
}

// Sub returns the counter deltas since an earlier snapshot.
func (s RunStats) Sub(earlier RunStats) RunStats {
	return RunStats{
		Cells:        s.Cells - earlier.Cells,
		Passes:       s.Passes - earlier.Passes,
		Instructions: s.Instructions - earlier.Instructions,
	}
}

// ---- replay-backed simulation kernels ----
//
// A cell's own pass goes through these wrappers (its accuracy and timing
// runs go through groupCell.accuracy and groupCell.timing): they swap the
// live VM for the workload's memoized trace replay (so the VM runs at
// most once per (workload, budget) key across the whole suite), account
// simulated instructions, and abort the cell on kernel errors (corrupt
// replay, cancellation) so the failure lands in the cell's slot rather
// than propagating garbage into rendered tables.

// runTraceStats consumes the memoized replay into trace statistics,
// iterating its column batches rather than materializing Records.
func runTraceStats(w *workload.Workload, p Params) *trace.Stats {
	bs := w.ReplayPrefix(p.AccuracyBudget, p.shareBudget())
	st, err := trace.NewStats().ConsumeBatches(bs, p.AccuracyBudget)
	instructionsSim.Add(p.AccuracyBudget)
	if err != nil {
		abortCell(err)
	}
	return st
}
