// Package sim wires the prediction structures into a front-end engine and
// measures them over traces by Section 4.1's methodology: Run drives any
// number of front ends over one trace and counts each one's
// mispredictions per branch class. The cycle-level timing driver lives in
// internal/cpu and reuses the same Engine so accuracy and timing
// experiments see identical predictor behaviour.
package sim

import (
	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/dirpred"
	"repro/internal/history"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config assembles a front end: the baseline BTB + RAS + direction
// predictor, optionally augmented with a target cache fed by a branch
// history.
type Config struct {
	BTB      btb.Config
	RASDepth int
	Dir      dirpred.Config

	// NewTargetCache constructs the target cache; nil runs the BTB-only
	// baseline the paper measures in Table 1.
	NewTargetCache func() core.TargetCache
	// NewHistory constructs the branch history indexing the target cache
	// (required when NewTargetCache is set).
	NewHistory func() history.Provider

	// Telemetry, when non-nil, receives every resolved indirect jump
	// (site, history, predicted vs actual target). The collector is owned
	// by the goroutine driving the engine; nil costs one pointer check
	// per resolved indirect jump.
	Telemetry *telemetry.Collector
}

// DefaultConfig returns the paper's baseline front end (no target cache).
func DefaultConfig() Config {
	return Config{
		BTB:      btb.DefaultConfig(),
		RASDepth: 32,
		Dir:      dirpred.DefaultConfig(),
	}
}

// WithTargetCache returns a copy of cfg using the given target cache and
// history constructors.
func (c Config) WithTargetCache(tc func() core.TargetCache, h func() history.Provider) Config {
	c.NewTargetCache = tc
	c.NewHistory = h
	return c
}

// Engine is an instantiated front end.
type Engine struct {
	BTB  *btb.BTB
	RAS  *btb.RAS
	Dir  *dirpred.Predictor
	TC   core.TargetCache // nil for the baseline
	Hist history.Provider // nil when TC is nil
	// Tel is the engine's telemetry collector (nil when disabled). The
	// timing drivers read it to stamp events with their cycle clock.
	Tel *telemetry.Collector
}

// NewEngine instantiates cfg.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		BTB: btb.New(cfg.BTB),
		RAS: btb.NewRAS(cfg.RASDepth),
		Dir: dirpred.New(cfg.Dir),
		Tel: cfg.Telemetry,
	}
	if cfg.NewTargetCache != nil {
		e.TC = cfg.NewTargetCache()
		if cfg.NewHistory == nil {
			panic("sim: target cache configured without a history")
		}
		e.Hist = cfg.NewHistory()
	}
	return e
}

// Prediction is the front end's fetch-time decision for one branch.
type Prediction struct {
	// Taken is the predicted direction (always true for unconditional
	// branches the BTB detects).
	Taken bool
	// Target is the predicted target when Taken && HasTarget.
	Target uint64
	// HasTarget reports whether any structure supplied a target.
	HasTarget bool
	// FromTC reports whether the target came from the target cache.
	FromTC bool
	// hist is the history value the target cache was indexed with,
	// replayed at update time ("the target cache is accessed again using
	// index A").
	hist uint64
}

// Correct reports whether the prediction matches the resolved record.
func (p Prediction) Correct(r *trace.Record) bool {
	if p.Taken != r.Taken {
		return false
	}
	if !r.Taken {
		return true
	}
	return p.HasTarget && p.Target == r.Target
}

// Predict models the fetch stage for the branch described by r (only
// r.PC and r.Class are inspected; the resolved fields are untouched).
//
// The BTB and target cache are examined concurrently: if the BTB detects an
// indirect branch, the target cache entry supplies the target; a tagged
// target-cache miss falls back to the BTB's last-computed target. A BTB
// miss leaves the front end blind: it predicts fall-through (correct only
// for a not-taken conditional branch).
func (e *Engine) Predict(r *trace.Record) Prediction {
	var p Prediction
	if e.TC != nil {
		// Capture the fetch-time history; the update replays this index
		// even when the BTB fails to detect the branch.
		p.hist = e.Hist.Value(r.PC)
	}
	entry, hit := e.BTB.Lookup(r.PC)
	if !hit {
		// Undetected branch: the fetch engine falls through.
		return p
	}
	// The BTB supplies the detected class; use it (not the trace's) so a
	// stale entry misclassifying the instruction behaves as hardware
	// would. Direction:
	switch entry.Class {
	case trace.ClassCondDirect:
		p.Taken = e.Dir.Predict(r.PC)
	default:
		p.Taken = true
	}
	if !p.Taken {
		return p
	}
	switch entry.Class {
	case trace.ClassReturn:
		if addr, ok := e.RAS.Peek(); ok {
			p.Target, p.HasTarget = addr, true
		}
	case trace.ClassIndJump, trace.ClassIndCall:
		if e.TC != nil {
			if tgt, ok := e.TC.Predict(r.PC, p.hist); ok {
				p.Target, p.HasTarget, p.FromTC = tgt, true, true
				return p
			}
		}
		p.Target, p.HasTarget = entry.Target, true
	default:
		p.Target, p.HasTarget = entry.Target, true
	}
	return p
}

// Resolve trains every structure with the resolved branch r, given the
// fetch-time prediction p. It must be called exactly once per branch, in
// program order.
func (e *Engine) Resolve(r *trace.Record, p Prediction) {
	// Telemetry first, on the fetch-time prediction, before any structure
	// trains. Resolve is the one point every driver (accuracy, flush,
	// fast timing, event timing) passes through, so instrumenting here
	// keeps all of them consistent.
	if e.Tel != nil && r.Class.IsTargetCachePredicted() {
		e.Tel.Indirect(r.PC, p.hist, p.Target, p.Taken && p.HasTarget, r.Target, p.Correct(r))
	}
	// Return address stack: calls push at resolve (in-order driver), and
	// returns consume the speculatively peeked entry; then the direction
	// predictor trains.
	resolveFront(e.RAS, e.Dir, r)
	if e.TC != nil {
		if r.Class.IsTargetCachePredicted() {
			// Re-access with the fetch-time index and write the computed
			// target.
			e.TC.Update(r.PC, p.hist, r.Target)
		}
		e.Hist.Observe(r)
	}
	e.BTB.Update(r)
}

// Reset clears all predictor state.
func (e *Engine) Reset() {
	e.BTB.Reset()
	e.RAS.Reset()
	e.Dir.Reset()
	if e.TC != nil {
		e.TC.Reset()
	}
	if e.Hist != nil {
		e.Hist.Reset()
	}
}
