// Package bench defines one reproducible experiment per table and figure in
// the paper's evaluation (Tables 1-9, Figures 1-8 and 12-13), plus ablation
// sweeps beyond the paper. Each experiment runs the relevant simulations
// and renders plain-text tables with the same rows/series the paper
// reports.
//
// An experiment enqueues its simulations as cells (cells.go), whose
// accuracy and timing runs over a workload's memoized capture fuse into
// one gang pass per workload and front end. A timing run is a gang member
// that records its mispredict bits, then a member of a pipeline pass on
// the fast model, or an event pass of its own on the event model; only
// wrongpath's wrong-path runs drive a live VM.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Params control experiment scale. The defaults run every experiment in
// seconds; raise the budgets for tighter estimates.
type Params struct {
	// AccuracyBudget is the instruction budget per accuracy simulation.
	AccuracyBudget int64
	// TimingBudget is the instruction budget per timing simulation.
	TimingBudget int64
	// EventModel switches the timing experiments from the fast one-pass
	// model to the event-driven validation model (slower, structurally
	// explicit; the two agree on all reported orderings).
	EventModel bool
	// Parallel is the number of simulation cells each experiment runs
	// concurrently: 0 means one worker per CPU, 1 runs serially. Results
	// are gathered positionally, so rendered tables are byte-identical at
	// every setting.
	Parallel int
	// Telemetry, when non-nil, collects per-site predictor statistics,
	// misprediction events and run-level metrics: every simulation cell
	// gets a private collector, merged into the recorder when the cell
	// completes. Nil (the default) disables collection; the disabled cost
	// is one nil check per resolved indirect jump.
	Telemetry *telemetry.Recorder

	// ctx cancels in-flight simulation cells; nil means Background. Set
	// it with WithContext so the zero Params stays usable.
	ctx context.Context
	// experiment labels cells for CellError reporting; the suite runner
	// sets it per experiment via forExperiment.
	experiment string
	// cell identifies the simulation cell this Params copy was minted
	// for; the cell scheduler sets it so kernels can attribute telemetry.
	cell cellID
	// fails, when non-nil, collects every CellError across experiments
	// for the run-level exit digest.
	fails *failureLog
}

// workers resolves Parallel to a concrete worker count.
func (p Params) workers() int {
	if p.Parallel > 0 {
		return p.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Workers is the resolved worker-pool size (Parallel, or one per CPU when
// unset) — the value telemetry.RunInfo wants.
func (p Params) Workers() int { return p.workers() }

// shareBudget is the largest per-cell budget in play: any capture of at
// least this many records serves every cell of the workload (drivers
// clamp to their own budget), so the memo keeps one capture per workload
// instead of one per (workload, budget).
func (p Params) shareBudget() int64 {
	if p.AccuracyBudget > p.TimingBudget {
		return p.AccuracyBudget
	}
	return p.TimingBudget
}

// WithContext returns a copy of p whose simulation cells observe ctx:
// cancellation stops in-flight kernels at the next poll boundary and marks
// not-yet-started cells as cancelled, so experiments still render (with
// ERR rows) and the run can summarise what completed.
func (p Params) WithContext(ctx context.Context) Params {
	p.ctx = ctx
	return p
}

// Context returns the params' context, Background when unset.
func (p Params) Context() context.Context {
	if p.ctx != nil {
		return p.ctx
	}
	return context.Background()
}

// forExperiment returns a copy of p labelled with the experiment id and
// wired to the run-level failure log.
func (p Params) forExperiment(id string, fails *failureLog) Params {
	p.experiment = id
	p.fails = fails
	return p
}

// forCell returns a copy of p minted for one simulation cell; telemetry
// collected by the cell's kernels is attributed to id.
func (p Params) forCell(id cellID) Params {
	p.cell = id
	return p
}

// startCollector returns a fresh telemetry collector for the current
// cell, nil when telemetry is disabled.
func (p Params) startCollector() *telemetry.Collector {
	return p.Telemetry.NewCollector()
}

// mergeCollector folds a cell kernel's collector into the run-level
// recorder under the cell's "experiment/workload/config" key. Callers
// defer it so partial telemetry from failed cells still lands.
func (p Params) mergeCollector(col *telemetry.Collector) {
	if col == nil {
		return
	}
	p.Telemetry.Merge(telemetry.Key{
		Experiment: p.experiment,
		Workload:   p.cell.Workload,
		Config:     p.cell.Config,
	}, col)
}

// DefaultParams returns budgets that run the full suite quickly while
// keeping rates stable.
func DefaultParams() Params {
	return Params{AccuracyBudget: 2_000_000, TimingBudget: 1_000_000}
}

// Experiment is one paper table or figure.
type Experiment struct {
	// ID is the command-line name, e.g. "table4" or "figures12-13".
	ID string
	// Title describes the experiment.
	Title string
	// Run executes the experiment and returns rendered tables.
	Run func(p Params) []*stats.Table
}

var experiments []*Experiment

func registerExperiment(e *Experiment) *Experiment {
	experiments = append(experiments, e)
	return e
}

// experimentOrder is the canonical presentation order: the paper's tables
// and figures first, then the extensions, with the claims verifier last.
var experimentOrder = []string{
	"table1", "figures1-8", "table2", "table3", "table4", "table5",
	"table6", "table7", "table8", "table9", "figures12-13",
	"ablation-history", "budget", "cbt", "context-switch", "cxx", "followups", "ras",
	"sensitivity", "wrongpath", "verify",
}

// All returns every experiment in canonical (paper-first) order.
func All() []*Experiment {
	rank := make(map[string]int, len(experimentOrder))
	for i, id := range experimentOrder {
		rank[id] = i
	}
	out := make([]*Experiment, len(experiments))
	copy(out, experiments)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iOK := rank[out[i].ID]
		rj, jOK := rank[out[j].ID]
		if iOK && jOK {
			return ri < rj
		}
		if iOK != jOK {
			return iOK // ranked experiments before unranked ones
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ByID returns the named experiment.
func ByID(id string) (*Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// ---- shared helpers ----

// pct formats a fraction as a percentage.
func pct(v float64) string { return stats.Percent(v) }

// baselines enqueues, per workload, a "btb-baseline" cell timing the
// BTB-only front end on the paper's machine: the reference every
// execution-time reduction is taken against. It joins the workload's
// timing gang like any other member.
func baselines(g *cellGroup, ws []*workload.Workload) []*slot[*cpu.Result] {
	out := make([]*slot[*cpu.Result], len(ws))
	for i, w := range ws {
		out[i] = timingCell(g, cid(w, "btb-baseline"), w, sim.DefaultConfig(), cpu.DefaultConfig())
	}
	return out
}

// reduction returns s's execution-time reduction against base; ok is
// false when either cell failed.
func reduction(base, s *slot[*cpu.Result]) (red float64, ok bool) {
	if !base.ok() || !s.ok() {
		return 0, false
	}
	return stats.Reduction(float64(base.val.Cycles), float64(s.val.Cycles)), true
}

// redCell renders s's execution-time reduction against base, or ERR when
// either cell failed.
func redCell(base, s *slot[*cpu.Result]) string {
	if red, ok := reduction(base, s); ok {
		return pct(red)
	}
	return "ERR"
}

// tcConfig builds a sim.Config with the given target cache and history
// constructors.
func tcConfig(newTC func() core.TargetCache, newHist func() history.Provider) sim.Config {
	return sim.DefaultConfig().WithTargetCache(newTC, newHist)
}

// taglessGshare is the tagless target cache used throughout Tables 5-6.
func taglessGshare(entries int) func() core.TargetCache {
	return func() core.TargetCache {
		return core.NewTagless(core.TaglessConfig{Entries: entries, Scheme: core.SchemeGshare})
	}
}

// pattern returns a pattern-history constructor.
func pattern(bits int) func() history.Provider {
	return func() history.Provider { return history.NewPatternProvider(bits) }
}

// path returns a path-history constructor.
func path(cfg history.PathConfig) func() history.Provider {
	return func() history.Provider { return history.NewPath(cfg) }
}

// pathSchemes are the five path-history variants of Tables 5, 6 and 8,
// in the paper's column order.
func pathSchemes(bits, bitsPerTarget, addrBitOffset int) []struct {
	Name string
	Cfg  history.PathConfig
} {
	base := history.PathConfig{
		Bits:          bits,
		BitsPerTarget: bitsPerTarget,
		AddrBitOffset: addrBitOffset,
	}
	mk := func(per bool, f history.PathFilter) history.PathConfig {
		c := base
		c.PerAddress = per
		c.Filter = f
		return c
	}
	return []struct {
		Name string
		Cfg  history.PathConfig
	}{
		{"per-addr", mk(true, 0)},
		{"branch", mk(false, history.FilterBranch)},
		{"control", mk(false, history.FilterControl)},
		{"ind jmp", mk(false, history.FilterIndJmp)},
		{"call/ret", mk(false, history.FilterCallRet)},
	}
}
