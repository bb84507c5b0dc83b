package sim

import (
	"math"

	"repro/internal/trace"
)

// WindowedResult reports a measurement split into fixed-size instruction
// windows, quantifying warm-up and steady-state variance — the
// methodology check behind "simulated to completion" claims: if the
// per-window rate still drifts, the budget is too small.
type WindowedResult struct {
	// Windows holds each window's indirect-jump misprediction rate, in
	// order.
	Windows []float64
	// Overall is the whole-run result.
	Overall AccuracyResult
}

// RunAccuracyWindows is RunAccuracy with the trace split into
// budget/windows-sized windows (at least one instruction each). The
// predictor state carries across windows (one continuous run); only the
// accounting is windowed. Overall.Err reports a corrupt source like
// RunAccuracy does.
func RunAccuracyWindows(factory trace.Factory, budget int64, windows int, cfg Config) WindowedResult {
	if windows < 1 {
		windows = 1
	}
	engine := NewEngine(cfg)
	var out WindowedResult
	perWindow := max(budget/int64(windows), 1)
	src := trace.NewLimit(factory.Open(), budget)
	var r trace.Record
	var winPred, winMiss int64
	for src.Next(&r) {
		out.Overall.Instructions++
		if r.Class.IsBranch() {
			out.Overall.Branches++
			p := engine.Predict(&r)
			correct := p.Correct(&r)
			if r.Class.IsTargetCachePredicted() {
				out.Overall.Indirect.Record(correct)
				winPred++
				if !correct {
					winMiss++
				}
			}
			out.Overall.Overall.Record(correct)
			engine.Resolve(&r, p)
		}
		if out.Overall.Instructions%perWindow == 0 && out.Overall.Instructions > 0 {
			if winPred > 0 {
				out.Windows = append(out.Windows, float64(winMiss)/float64(winPred))
			} else {
				out.Windows = append(out.Windows, 0)
			}
			winPred, winMiss = 0, 0
		}
	}
	out.Overall.Err = trace.SourceErr(src)
	return out
}

// Mean returns the average per-window misprediction rate.
func (w WindowedResult) Mean() float64 {
	if len(w.Windows) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range w.Windows {
		sum += v
	}
	return sum / float64(len(w.Windows))
}

// StdDev returns the sample standard deviation across windows.
func (w WindowedResult) StdDev() float64 {
	n := len(w.Windows)
	if n < 2 {
		return 0
	}
	mean := w.Mean()
	var ss float64
	for _, v := range w.Windows {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// WarmupWindows returns how many leading windows lie more than tol above
// the final window's rate — a crude but useful warm-up length estimate.
func (w WindowedResult) WarmupWindows(tol float64) int {
	if len(w.Windows) == 0 {
		return 0
	}
	final := w.Windows[len(w.Windows)-1]
	n := 0
	for _, v := range w.Windows {
		if v > final+tol {
			n++
		} else {
			break
		}
	}
	return n
}
