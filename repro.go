// Package repro is a from-scratch reproduction of "Target Prediction for
// Indirect Jumps" (Po-Yung Chang, Eric Hao, Yale N. Patt; ISCA 1997): the
// target cache, a branch-history-indexed predictor for indirect-jump
// targets, together with every substrate the paper's evaluation needs —
// BTB, return address stack, two-level direction predictor, path/pattern
// history registers, a small ISA and VM hosting eight SPECint95-like
// workloads, an HPS-like out-of-order timing model, and an experiment
// harness regenerating each of the paper's tables and figures.
//
// This package is the public facade: it re-exports the library's main
// types and entry points so applications need a single import. See
// examples/ for runnable programs and DESIGN.md for the system inventory.
//
// # Quick start
//
//	w, _ := repro.WorkloadByName("perl")
//	cfg := repro.BaselineConfig().WithTargetCache(
//		func() repro.TargetCache {
//			return repro.NewTagless(repro.TaglessConfig{
//				Entries: 512, Scheme: repro.SchemeGshare,
//			})
//		},
//		func() repro.History { return repro.NewPatternHistory(9) },
//	)
//	res := repro.RunAccuracy(w, 1_000_000, cfg)
//	fmt.Println(res.IndirectMispredictRate())
package repro

import (
	"repro/internal/bench"
	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core predictor types (the paper's contribution).
type (
	// TargetCache is the predictor interface shared by the tagless and
	// tagged variants.
	TargetCache = core.TargetCache
	// TaglessConfig configures a tagless target cache (Figure 10).
	TaglessConfig = core.TaglessConfig
	// TaggedConfig configures a tagged target cache (Figure 11).
	TaggedConfig = core.TaggedConfig
	// TaglessScheme selects GAg / GAs / gshare indexing.
	TaglessScheme = core.TaglessScheme
	// TaggedScheme selects Address / History-Concatenate / History-XOR
	// indexing.
	TaggedScheme = core.TaggedScheme
)

// Tagless index schemes.
const (
	SchemeGAg    = core.SchemeGAg
	SchemeGAs    = core.SchemeGAs
	SchemeGshare = core.SchemeGshare
)

// Tagged index schemes.
const (
	SchemeAddress       = core.SchemeAddress
	SchemeHistoryConcat = core.SchemeHistoryConcat
	SchemeHistoryXor    = core.SchemeHistoryXor
)

// NewTagless builds a tagless target cache.
func NewTagless(cfg TaglessConfig) *core.Tagless { return core.NewTagless(cfg) }

// NewTagged builds a tagged target cache.
func NewTagged(cfg TaggedConfig) *core.Tagged { return core.NewTagged(cfg) }

// Follow-up predictor designs (beyond the paper; see the lineage example).
type (
	// CascadedConfig configures the filtered two-stage predictor of
	// Driesen & Hölzle.
	CascadedConfig = core.CascadedConfig
	// ITTAGEConfig configures the ITTAGE-style geometric-history
	// predictor of Seznec.
	ITTAGEConfig = core.ITTAGEConfig
)

// NewCascaded builds a cascaded indirect-target predictor.
func NewCascaded(cfg CascadedConfig) *core.Cascaded { return core.NewCascaded(cfg) }

// DefaultCascadedConfig returns the default cascade geometry.
func DefaultCascadedConfig() CascadedConfig { return core.DefaultCascadedConfig() }

// NewITTAGE builds an ITTAGE-style predictor.
func NewITTAGE(cfg ITTAGEConfig) *core.ITTAGE { return core.NewITTAGE(cfg) }

// DefaultITTAGEConfig returns the default five-table geometry.
func DefaultITTAGEConfig() ITTAGEConfig { return core.DefaultITTAGEConfig() }

// NewLastTarget builds a pc-indexed last-target predictor (the BTB's
// policy as a composable component).
func NewLastTarget(entries, ways int) *core.LastTarget {
	return core.NewLastTarget(entries, ways)
}

// NewChooser builds a hybrid predictor selecting between two components
// with per-jump 2-bit meta counters.
func NewChooser(a, b TargetCache, metaEntries int) *core.Chooser {
	return core.NewChooser(a, b, metaEntries)
}

// DefaultChooser returns the canonical last-target + tagged-cache hybrid.
func DefaultChooser() *core.Chooser { return core.DefaultChooser() }

// History types (Section 3.1).
type (
	// History supplies the branch history indexing a target cache.
	History = history.Provider
	// PathConfig configures a path history register file.
	PathConfig = history.PathConfig
	// PathFilter selects which branches feed a global path history.
	PathFilter = history.PathFilter
)

// Path history filters.
const (
	FilterControl = history.FilterControl
	FilterBranch  = history.FilterBranch
	FilterCallRet = history.FilterCallRet
	FilterIndJmp  = history.FilterIndJmp
)

// NewPatternHistory returns an n-bit global pattern history.
func NewPatternHistory(n int) History { return history.NewPatternProvider(n) }

// NewPathHistory returns a path history register file.
func NewPathHistory(cfg PathConfig) History { return history.NewPath(cfg) }

// Baseline structures.
type (
	// BTBConfig configures the branch target buffer.
	BTBConfig = btb.Config
	// BTBStrategy selects the BTB's indirect-target update policy.
	BTBStrategy = btb.Strategy
)

// BTB update strategies.
const (
	StrategyDefault = btb.StrategyDefault
	StrategyTwoBit  = btb.StrategyTwoBit
)

// Simulation types.
type (
	// FrontEndConfig assembles BTB + RAS + direction predictor and an
	// optional target cache.
	FrontEndConfig = sim.Config
	// Engine is an instantiated front end.
	Engine = sim.Engine
	// AccuracyResult reports per-class prediction accuracy.
	AccuracyResult = sim.AccuracyResult
	// MachineConfig describes the out-of-order timing model.
	MachineConfig = cpu.Config
	// TimingResult reports cycles, IPC and misprediction counts.
	TimingResult = cpu.Result
)

// BaselineConfig returns the paper's BTB-only front end.
func BaselineConfig() FrontEndConfig { return sim.DefaultConfig() }

// NewEngine instantiates a front end.
func NewEngine(cfg FrontEndConfig) *Engine { return sim.NewEngine(cfg) }

// RunAccuracy measures prediction accuracy over budget instructions.
func RunAccuracy(source TraceFactory, budget int64, cfg FrontEndConfig) AccuracyResult {
	return sim.RunAccuracy(source, budget, cfg)
}

// DefaultMachine returns the paper's machine configuration (8-wide,
// 128-entry window, Table 3 latencies, 16KB data cache).
func DefaultMachine() MachineConfig { return cpu.DefaultConfig() }

// RunTiming simulates budget instructions on the out-of-order machine with
// the given front end.
func RunTiming(source TraceFactory, budget int64, cfg FrontEndConfig, machine MachineConfig) TimingResult {
	return cpu.Run(source.Open(), budget, sim.NewEngine(cfg), machine)
}

// RunTimingEvent is RunTiming on the event-driven validation model.
func RunTimingEvent(source TraceFactory, budget int64, cfg FrontEndConfig, machine MachineConfig) TimingResult {
	return cpu.NewEvent(machine, sim.NewEngine(cfg)).Run(source.Open(), budget)
}

// Timeline captures per-instruction pipeline timing for diagrams.
type Timeline = cpu.Timeline

// RunTimelineDiagram runs the timing model recording the first maxEntries
// instructions' pipeline timing (render with Timeline.String).
func RunTimelineDiagram(source TraceFactory, budget int64, cfg FrontEndConfig, machine MachineConfig, maxEntries int) (TimingResult, *Timeline) {
	return cpu.RunTimeline(source.Open(), budget, sim.NewEngine(cfg), machine, maxEntries)
}

// Trace and workload types.
type (
	// Record is one retired instruction.
	Record = trace.Record
	// TraceSource streams records in program order.
	TraceSource = trace.Source
	// TraceFactory opens repeatable passes over a trace.
	TraceFactory = trace.Factory
	// TraceStats accumulates Table 1 / Figures 1-8 statistics.
	TraceStats = trace.Stats
	// Workload is one of the eight SPECint95-like benchmark programs.
	Workload = workload.Workload
)

// Workloads returns the eight workloads in paper order.
func Workloads() []*Workload { return workload.All() }

// WorkloadByName returns the named workload (compress, gcc, go, ijpeg,
// m88ksim, perl, vortex, xlisp).
func WorkloadByName(name string) (*Workload, error) { return workload.ByName(name) }

// Experiment harness.
type (
	// Experiment reproduces one paper table or figure.
	Experiment = bench.Experiment
	// ExperimentParams sets simulation budgets.
	ExperimentParams = bench.Params
	// Table is a rendered result table.
	Table = stats.Table
)

// Experiments returns every experiment in paper order.
func Experiments() []*Experiment { return bench.All() }

// ExperimentByID returns the named experiment (e.g. "table4").
func ExperimentByID(id string) (*Experiment, error) { return bench.ByID(id) }

// DefaultExperimentParams returns the default simulation budgets.
func DefaultExperimentParams() ExperimentParams { return bench.DefaultParams() }
