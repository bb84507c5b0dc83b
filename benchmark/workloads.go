package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scale fixes the input sizes of every workload. "full" is what the
// benchmark measures; "smoke" runs the same code paths at 100k-instruction
// budgets for the package tests.
type scale struct {
	name                 string
	accBudget, timBudget int64 // paper-* suite budgets
	sweepBudget          int64 // per-point budget of sweep-fused
	spillBudget          int64 // per-program capture of cold-spill
	layerRecords         int64 // records per pass of the layers phase
	warmup, setupRounds  int
}

var scales = map[string]scale{
	"full": {name: "full", accBudget: 2_000_000, timBudget: 1_000_000, sweepBudget: 1_000_000,
		spillBudget: 3_000_000, layerRecords: 1_000_000, warmup: 1, setupRounds: 9},
	"smoke": {name: "smoke", accBudget: 100_000, timBudget: 100_000, sweepBudget: 100_000,
		spillBudget: 100_000, layerRecords: 100_000, warmup: 0, setupRounds: 1},
}

// env is what every workload shares: the scale and the seed's generator.
type env struct {
	ctx  context.Context
	sc   scale
	seed int64
	tmp  string // scratch directory, removed at exit
}

// rng returns a generator for one purpose; each purpose has its own
// stream so that, say, adding a reference check does not shift the
// generated inputs.
func (e env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(e.seed), stream))
}

// repOut is what one rep did.
type repOut struct {
	wall    time.Duration // set by the harness
	setup   time.Duration // cold-spill: the capture+spill phase of the rep
	ops     int64         // cells, sweep points or accuracy runs
	failed  int64
	instr   int64 // simulated instructions
	digests map[string]string
	// Ledger inputs: CPU time the rep spent capturing (cold-spill), and
	// the sweep's instructions split by kernel (fused gang or solo).
	captureCPU              time.Duration
	fusedInstr, directInstr int64
}

// load is one benchmark workload.
type load interface {
	// inputs describes the generated inputs, one line each.
	inputs() []string
	// setupInRep reports that every rep starts from an empty memo and
	// captures inside the rep; setup_s is then the median of the reps'
	// capture phases instead of separate set-up rounds.
	setupInRep() bool
	// capture fills the memo with every trace the reps read.
	capture(tr *tracer, parent *span)
	rep(tr *tracer, parent *span) repOut
	// cleanup runs after each rep, outside timing.
	cleanup()
	// reference re-derives the last rep's outputs through independent
	// reference paths; it runs once, after the timed reps.
	reference() error
	layers() layerConfigs
	// ledger predicts the rep's CPU time from the per-layer costs.
	ledger(costs map[string]float64, r repOut) time.Duration
}

func newLoad(name string, e env) (load, error) {
	switch name {
	case wPaperAccuracy:
		return newPaper(e, name, accuracyExperiments, append(workload.All(), workload.Extras()...)), nil
	case wPaperTiming:
		return newPaper(e, name, timingExperiments, workload.PerlGcc()), nil
	case wSweepFused:
		return newSweep(e)
	case wColdSpill:
		return newSpill(e)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(allWorkloads, ", "))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// captureAll captures every program at budget on the worker pool, the
// way the suite's cells would on first touch.
func captureAll(tr *tracer, parent *span, progs []*workload.Workload, budget int64) {
	pool.Run(workers, len(progs), func(i int) {
		sp := tr.start(parent, "capture/"+progs[i].Name, "")
		progs[i].Replay(budget)
		tr.end(sp)
	})
}

// ---- paper-accuracy and paper-timing ----

// The two paper workloads split `tcsim -exp all` between the accuracy
// kernels and the timing models; TestExperimentsPartitionSuite pins that
// together they are exactly bench.All().
var (
	accuracyExperiments = []string{"table1", "figures1-8", "table2", "table3", "table4",
		"ablation-history", "budget", "cbt", "context-switch", "cxx", "followups", "ras", "verify"}
	timingExperiments = []string{"table5", "table6", "table7", "table8", "table9",
		"figures12-13", "sensitivity", "wrongpath"}
)

type paperLoad struct {
	e      env
	timing bool
	exps   []*bench.Experiment
	params bench.Params
	progs  []*workload.Workload
}

func newPaper(e env, name string, ids []string, progs []*workload.Workload) *paperLoad {
	var exps []*bench.Experiment
	for _, id := range ids {
		x, err := bench.ByID(id)
		if err != nil {
			panic(err) // the lists above name registered experiments
		}
		exps = append(exps, x)
	}
	// The seed only permutes the order: the rendered tables do not
	// depend on it.
	e.rng(1).Shuffle(len(exps), func(i, j int) { exps[i], exps[j] = exps[j], exps[i] })
	p := bench.DefaultParams()
	p.AccuracyBudget, p.TimingBudget = e.sc.accBudget, e.sc.timBudget
	p.Parallel = workers
	return &paperLoad{e: e, timing: name == wPaperTiming, exps: exps, params: p, progs: progs}
}

func (p *paperLoad) inputs() []string {
	ids := make([]string, len(p.exps))
	for i, x := range p.exps {
		ids[i] = x.ID
	}
	return []string{
		"experiments: " + strings.Join(ids, " "),
		fmt.Sprintf("budgets: accuracy=%d timing=%d parallel=%d", p.params.AccuracyBudget, p.params.TimingBudget, p.params.Parallel),
	}
}

func (p *paperLoad) setupInRep() bool { return false }

func (p *paperLoad) capture(tr *tracer, parent *span) {
	// Every cell reads the one capture per program at the larger budget
	// (workload.ReplayPrefix).
	captureAll(tr, parent, p.progs, max(p.params.AccuracyBudget, p.params.TimingBudget))
}

func (p *paperLoad) rep(tr *tracer, parent *span) repOut {
	out := repOut{digests: map[string]string{}}
	for _, x := range p.exps {
		sp := tr.start(parent, "experiment/"+x.ID, "")
		var buf bytes.Buffer
		var rpt bench.ExperimentReport
		res, err := bench.RunSuite(p.e.ctx, bench.SuiteOptions{
			Experiments:  []*bench.Experiment{x},
			Params:       p.params,
			Format:       "text",
			Out:          &buf,
			OnExperiment: func(r bench.ExperimentReport) { rpt = r },
		})
		tr.end(sp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", x.ID, err)
			out.failed++
			out.ops++
			continue
		}
		if d := res.Digest(); d != "" {
			fmt.Fprintf(os.Stderr, "benchmark: %s", d)
		}
		out.ops += rpt.Cells
		out.failed += int64(len(res.Failures))
		out.instr += rpt.Instructions
		out.digests[x.ID] = digest(buf.Bytes())
	}
	return out
}

func (p *paperLoad) cleanup() {}

// reference has nothing to do: the paper tables are seed-independent, so
// every seed checks them against the committed digests.
func (p *paperLoad) reference() error { return nil }

func (p *paperLoad) layers() layerConfigs {
	tagless := sweep.Point{Family: "tagless", Scheme: "gshare", History: "pattern", Entries: 512, HistBits: 9}
	return layerConfigs{
		families: map[string]sweep.Point{
			"tagless":  tagless,
			"tagged":   {Family: "tagged", Scheme: "xor", History: "pattern", Entries: 256, Ways: 4, HistBits: 9, TagBits: 32},
			"cascaded": {Family: "cascaded", Scheme: "filtered", History: "pattern", Stage1: 128, Entries: 256, Ways: 4, HistBits: 9, TagBits: 32},
			"ittage":   {Family: "ittage", History: "pattern", Stage1: 256, Entries: 128, Tables: 5, TagBits: 9, HistBits: 64},
		},
		gang:  taglessGang(tagless),
		spec:  genSpec(p.e, p.progs, p.params.AccuracyBudget),
		progs: p.progs,
	}
}

// ledger prices every simulated instruction at the kernel the workload
// mostly runs: the solo accuracy kernel, or the fast timing model.
func (p *paperLoad) ledger(c map[string]float64, r repOut) time.Duration {
	perInstr := c["sim.solo.ns_per_instr"]
	if p.timing {
		perInstr = c["cpu.replay.ns_per_instr"]
	}
	return time.Duration(float64(r.instr) * perInstr)
}

// ---- sweep-fused ----

type sweepLoad struct {
	e      env
	spec   *sweep.Spec
	points []sweep.Point
	progs  []*workload.Workload
	last   *sweep.Outcome
}

func newSweep(e env) (*sweepLoad, error) {
	progs := workload.All()
	spec := genSpec(e, progs, e.sc.sweepBudget)
	ex, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	return &sweepLoad{e: e, spec: spec, points: ex.Points, progs: progs}, nil
}

// genSpec draws a grid with the families and per-axis cardinalities of
// sweep_smoke.json from fixed supersets of axis values, over every given
// program. Each axis takes one value from each of k contiguous strata of
// its sorted superset, so every seed sweeps tables of similar sizes and
// the work per rep stays close to constant while the points differ.
// Every combination is valid, so each seed expands to the same number of
// points.
func genSpec(e env, progs []*workload.Workload, budget int64) *sweep.Spec {
	rng := e.rng(2)
	ax := func(superset []int, k int) sweep.Axis { return sweep.Axis{Values: strata(rng, superset, k)} }
	pow2 := func(lo, hi int) []int {
		var vs []int
		for v := lo; v <= hi; v *= 2 {
			vs = append(vs, v)
		}
		return vs
	}
	span := func(lo, hi int) []int {
		var vs []int
		for v := lo; v <= hi; v++ {
			vs = append(vs, v)
		}
		return vs
	}
	names := make([]string, len(progs))
	for i, w := range progs {
		names[i] = w.Name
	}
	return &sweep.Spec{
		Name:      fmt.Sprintf("bench-seed%d", e.seed),
		Budget:    budget,
		Workloads: names,
		Grids: []sweep.Grid{
			{Family: "btb", Schemes: []string{"default", "2bit"}, Entries: ax(pow2(128, 16384), 6), Ways: ax(pow2(1, 8), 3)},
			{Family: "tagless", Schemes: strata(rng, []string{"gag", "gshare"}, 2), Entries: ax(pow2(32, 8192), 7), HistBits: ax(span(2, 14), 5)},
			{Family: "tagged", Schemes: strata(rng, []string{"addr", "concat", "xor"}, 2), Entries: ax(pow2(64, 2048), 4),
				Ways: ax(pow2(1, 8), 2), HistBits: ax(span(3, 16), 4), TagBits: ax([]int{6, 7, 8, 9, 10, 12, 16, 32}, 2)},
			{Family: "cascaded", Stage1Entries: ax(pow2(32, 256), 2), Entries: ax(pow2(128, 1024), 2), Ways: ax(pow2(1, 8), 2),
				HistBits: ax(span(4, 12), 2), TagBits: ax([]int{8, 9, 10, 12, 16, 32}, 2)},
			{Family: "ittage", Stage1Entries: ax(pow2(64, 512), 2), Entries: ax(pow2(32, 1024), 3), Tables: ax(span(2, 6), 3)},
		},
	}
}

// strata picks one element from each of k contiguous, near-equal slices
// of superset, in superset order.
func strata[T any](rng *rand.Rand, superset []T, k int) []T {
	out := make([]T, 0, k)
	n := len(superset)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		out = append(out, superset[lo+rng.IntN(hi-lo)])
	}
	return out
}

func (s *sweepLoad) inputs() []string {
	spec, err := json.Marshal(s.spec)
	if err != nil {
		panic(err) // a Spec is plain data
	}
	return []string{
		"spec: " + string(spec),
		fmt.Sprintf("workers=%d gang-width=auto budget=%d", workers, s.spec.Budget),
	}
}

func (s *sweepLoad) setupInRep() bool { return false }

func (s *sweepLoad) capture(tr *tracer, parent *span) {
	captureAll(tr, parent, s.progs, s.spec.Budget)
}

func (s *sweepLoad) rep(tr *tracer, parent *span) repOut {
	out := repOut{digests: map[string]string{}}
	if tr != nil {
		// The traced rep times expansion and planning on their own; the
		// engine repeats both inside sweep.Run.
		sp := tr.start(parent, "sweep.expand", "")
		ex, err := s.spec.Expand()
		tr.end(sp)
		if err == nil {
			sp = tr.start(parent, "sweep.plan", "")
			sweep.PlanGangs(ex.Points, 0, 0)
			tr.end(sp)
		}
	}
	sp := tr.start(parent, "sweep.run", "")
	o, err := sweep.Run(s.e.ctx, s.spec, sweep.Options{Workers: workers})
	tr.end(sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		out.ops, out.failed = int64(len(s.points)), int64(len(s.points))
		return out
	}
	sp = tr.start(parent, "sweep.render", "")
	var buf bytes.Buffer
	o.Report().Render(&buf)
	tr.end(sp)
	out.digests["report"] = digest(buf.Bytes())
	out.ops = int64(len(o.Results))
	out.instr = o.SimulatedInstructions
	for _, r := range o.Results {
		if r.Point.Family == "btb" {
			out.directInstr += r.Instructions
		} else {
			out.fusedInstr += r.Instructions
		}
	}
	if o.GangFallbacks > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d gang(s) fell back to per-point runs\n", o.GangFallbacks)
	}
	s.last = o
	return out
}

func (s *sweepLoad) cleanup() {}

// reference recomputes 32 seed-chosen points with the solo kernel and
// requires each to equal the fused sweep's result field for field.
func (s *sweepLoad) reference() error {
	if s.last == nil {
		return fmt.Errorf("no completed sweep to check")
	}
	res := s.last.Results
	idx := s.e.rng(3).Perm(len(res))
	if len(idx) > 32 {
		idx = idx[:32]
	}
	sort.Ints(idx)
	for _, i := range idx {
		p := res[i].Point
		w, err := workload.ByName(p.Workload)
		if err != nil {
			return err
		}
		cfg, err := p.SimConfig()
		if err != nil {
			return err
		}
		bits, err := p.StorageBits()
		if err != nil {
			return err
		}
		a := sim.RunAccuracy(w.Replay(s.spec.Budget), s.spec.Budget, cfg)
		if a.Err != nil {
			return fmt.Errorf("reference %s: %w", p.Key(), a.Err)
		}
		want := sweep.Result{
			Point: p, StorageBits: bits, Instructions: a.Instructions, Branches: a.Branches,
			Indirect: a.Indirect.Predictions, IndirectMiss: a.Indirect.Mispredicts,
			Overall: a.Overall.Predictions, OverallMiss: a.Overall.Mispredicts, TCCovered: a.TCCovered,
		}
		if res[i] != want {
			return fmt.Errorf("point %s: sweep %+v, solo %+v", p.Key(), res[i], want)
		}
	}
	return nil
}

func (s *sweepLoad) layers() layerConfigs {
	lc := layerConfigs{families: map[string]sweep.Point{}, spec: s.spec, progs: s.progs}
	first := s.points[0].Workload
	for _, p := range s.points {
		if p.Workload != first {
			break
		}
		if _, ok := lc.families[p.Family]; !ok && p.Family != "btb" {
			lc.families[p.Family] = p
		}
		if p.Family == "tagless" && len(lc.gang) < gangWidth {
			lc.gang = append(lc.gang, p)
		}
	}
	return lc
}

// ledger prices fused points at the gang kernel's per-member cost and
// the btb family's points, which run alone with no target cache, at the
// baseline front end's.
func (s *sweepLoad) ledger(c map[string]float64, r repOut) time.Duration {
	return time.Duration(float64(r.fusedInstr)*c["sim.gang.ns_per_member_instr"] +
		float64(r.directInstr)*c["sim.baseline.ns_per_instr"])
}

// ---- cold-spill ----

type spillLoad struct {
	e      env
	progs  []*workload.Workload
	points []sweep.Point // one configuration per family
	cfgs   []sim.Config
	dir    string // the current rep's spill directory
	stores []*trace.Store
	last   []sim.AccuracyResult
}

func newSpill(e env) (*spillLoad, error) {
	rng := e.rng(4)
	pick := func(vs ...int) int { return vs[rng.IntN(len(vs))] }
	points := []sweep.Point{
		{Family: "tagless", Scheme: strata(rng, []string{"gag", "gshare"}, 1)[0], History: "pattern",
			Entries: pick(256, 512, 1024), HistBits: pick(8, 9, 10)},
		{Family: "tagged", Scheme: strata(rng, []string{"concat", "xor"}, 1)[0], History: "pattern",
			Entries: pick(128, 256, 512), Ways: pick(2, 4), HistBits: pick(9, 12), TagBits: pick(9, 32)},
		{Family: "cascaded", Scheme: "filtered", History: "pattern",
			Stage1: pick(64, 128), Entries: pick(256, 512), Ways: pick(2, 4), HistBits: pick(8, 9, 10), TagBits: pick(9, 32)},
		{Family: "ittage", History: "pattern",
			Stage1: pick(128, 256), Entries: pick(64, 128, 256), Tables: 5, TagBits: pick(8, 9, 10), HistBits: 64},
	}
	s := &spillLoad{e: e, progs: workload.All(), points: points}
	for _, p := range points {
		cfg, err := p.SimConfig()
		if err != nil {
			return nil, err
		}
		s.cfgs = append(s.cfgs, cfg)
	}
	return s, nil
}

func (s *spillLoad) inputs() []string {
	labels := make([]string, len(s.points))
	for i, p := range s.points {
		labels[i] = p.ConfigLabel()
	}
	return []string{
		"configs: " + strings.Join(labels, " "),
		fmt.Sprintf("capture: %d instructions per program, every capture spilled (flate) to a fresh directory per rep", s.e.sc.spillBudget),
	}
}

func (s *spillLoad) setupInRep() bool { return true }

func (s *spillLoad) capture(*tracer, *span) {}

func (s *spillLoad) rep(tr *tracer, parent *span) repOut {
	out := repOut{digests: map[string]string{}}
	budget := s.e.sc.spillBudget
	pairs := len(s.progs) * len(s.cfgs)
	out.ops = int64(pairs)
	fail := func(err error) repOut {
		fmt.Fprintf(os.Stderr, "benchmark: cold-spill: %v\n", err)
		out.failed = out.ops
		return out
	}

	start := time.Now()
	dir, err := os.MkdirTemp(s.e.tmp, "spill-*")
	if err != nil {
		return fail(err)
	}
	s.dir = dir
	workload.ResetMemo()
	workload.ConfigureSpill(workload.SpillConfig{Dir: dir, Threshold: 1, Compress: true})
	s.stores = make([]*trace.Store, len(s.progs))
	capT := make([]time.Duration, len(s.progs))
	pool.Run(workers, len(s.progs), func(i int) {
		sp := tr.start(parent, "capture/"+s.progs[i].Name, "")
		t := time.Now()
		s.stores[i], _ = s.progs[i].Replay(budget).(*trace.Store)
		capT[i] = time.Since(t)
		tr.end(sp)
	})
	out.setup = time.Since(start)
	for i, st := range s.stores {
		if st == nil {
			return fail(fmt.Errorf("%s was not spilled to a trace store", s.progs[i].Name))
		}
		out.captureCPU += capT[i]
	}

	res := make([]sim.AccuracyResult, pairs)
	pool.Run(workers, pairs, func(k int) {
		w, p := s.progs[k/len(s.cfgs)], s.points[k%len(s.cfgs)]
		sp := tr.start(parent, "sim.run/"+w.Name+"/"+p.Family, "")
		res[k] = sim.RunAccuracy(w.Replay(budget), budget, s.cfgs[k%len(s.cfgs)])
		tr.end(sp)
	})
	var buf bytes.Buffer
	for k, r := range res {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: cold-spill: %v\n", r.Err)
			out.failed++
		}
		out.instr += r.Instructions
		fmt.Fprintf(&buf, "%s/%s %+v\n", s.progs[k/len(s.cfgs)].Name, s.points[k%len(s.cfgs)].ConfigLabel(), r)
	}
	out.digests["results"] = digest(buf.Bytes())
	s.last = res
	return out
}

// cleanup closes the rep's stores and deletes their files, so every rep
// starts from an empty memo and an empty spill directory.
func (s *spillLoad) cleanup() {
	for _, st := range s.stores {
		if st != nil {
			st.Close()
		}
	}
	s.stores = nil
	workload.ResetMemo()
	workload.ConfigureSpill(workload.SpillConfig{})
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// reference reruns every (program, config) pair over an in-memory
// capture and requires the spilled runs' results to equal it.
func (s *spillLoad) reference() error {
	if s.last == nil {
		return fmt.Errorf("no completed rep to check")
	}
	budget := s.e.sc.spillBudget
	errs := make([]error, len(s.progs))
	pool.Run(workers, len(s.progs), func(i int) {
		rep := trace.Capture(trace.NewLimit(s.progs[i].Open(), budget))
		for j, cfg := range s.cfgs {
			want := sim.RunAccuracy(rep, budget, cfg)
			if got := s.last[i*len(s.cfgs)+j]; got != want {
				errs[i] = fmt.Errorf("%s/%s: spilled %+v, in memory %+v", s.progs[i].Name, s.points[j].ConfigLabel(), got, want)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *spillLoad) layers() layerConfigs {
	lc := layerConfigs{families: map[string]sweep.Point{}, spec: genSpec(s.e, s.progs, s.e.sc.spillBudget), progs: s.progs}
	for _, p := range s.points {
		lc.families[p.Family] = p
	}
	lc.gang = taglessGang(lc.families["tagless"])
	return lc
}

// ledger prices the rep as its capture time plus, for every record the
// accuracy runs read, one store read and one solo-kernel step.
func (s *spillLoad) ledger(c map[string]float64, r repOut) time.Duration {
	return r.captureCPU + time.Duration(float64(r.instr)*(c["trace.read_store.ns_per_record"]+c["sim.solo.ns_per_instr"]))
}
