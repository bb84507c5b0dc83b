package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Trace memoization: every simulation cell in the experiment suite is a
// pure function of (workload trace prefix, predictor config), and the
// trace prefix depends only on (workload, budget) because workloads are
// deterministic. Re-running the VM per cell therefore pays the toy
// machine's interpretation cost dozens of times for byte-identical
// streams. The memo below captures each (name, budget) prefix exactly once
// process-wide and hands out independent cursors, making concurrent cells
// race-free (captures are immutable) and VM-execution-free after first
// touch.
//
// Two refinements keep capture cost and footprint bounded:
//
//   - Prefix sharing. A budget-b cell can run over any capture of >= b
//     records, because every driver clamps to its own budget. Callers
//     that know the largest budget in play use ReplayPrefix to fold all
//     smaller requests onto one capture per workload, halving VM work in
//     the common accuracy+timing suite. The fold is static (the caller
//     names the shared budget), so capture counts stay deterministic
//     regardless of cell scheduling order.
//
//   - Spilling. Above a configurable threshold the capture streams from
//     the VM straight into an out-of-core trace.Store file — the decoded
//     columns never exist in memory at once — and cells replay it through
//     the store's bounded block cache, so budgets far beyond RAM run in
//     flat memory. See ConfigureSpill.
//
// The memo never evicts: tcsim runs use at most two budgets per workload
// (accuracy and timing), roughly 4 bytes per instruction resident — or
// only the block cache when spilled. Library users sweeping many budgets
// can call ResetMemo between sweeps.

type memoKey struct {
	name   string
	budget int64
}

type memoEntry struct {
	once sync.Once
	bs   trace.BlockSource
}

// SpillConfig configures out-of-core capture spilling.
type SpillConfig struct {
	// Dir receives one <name>-<budget>.tcstore file per spilled capture.
	Dir string
	// Threshold is the smallest budget (in instructions) that spills;
	// 0 disables spilling.
	Threshold int64
	// CacheBytes bounds each spilled store's decoded-block LRU cache
	// (<= 0 selects the trace package default).
	CacheBytes int64
	// Compress flate-compresses the spilled files.
	Compress bool
}

var (
	memoMu   sync.Mutex
	memos    = map[memoKey]*memoEntry{}
	spillCfg SpillConfig

	captures      atomic.Int64
	replays       atomic.Int64
	spilled       atomic.Int64
	spilledOnDisk atomic.Int64
)

// ConfigureSpill installs the spill policy for subsequent captures
// (typically once at startup, from tcsim's -trace-store flag). Captures
// already memoized stay where they are.
func ConfigureSpill(cfg SpillConfig) {
	memoMu.Lock()
	spillCfg = cfg
	memoMu.Unlock()
}

// TestCaptureTransform, when non-nil, post-processes every captured
// replay before it enters the memo. It exists for the fault-injection
// harness (internal/faultinject), which uses it to hand chosen workloads
// a damaged trace-store copy of their captures. Install and clear it only
// from tests, bracketed by ResetMemo calls so no transformed capture leaks
// into or out of the faulty window. While installed, prefix sharing and
// spilling are disabled so every cell sees exactly the capture the
// transform produced for its own budget.
var TestCaptureTransform func(name string, budget int64, rep *trace.Replay) trace.BlockSource

// Replay returns the workload's first budget instructions as an immutable
// capture, running the VM at most once per (workload, budget) key for the
// life of the process. The result implements trace.Factory (every Open
// returns an independent allocation-free cursor, safe for concurrent use)
// and trace.BlockSource (the batched form the simulation kernels
// consume); it is an in-memory trace.Replay or, above the configured
// spill threshold, an out-of-core *trace.Store.
func (w *Workload) Replay(budget int64) trace.BlockSource {
	replays.Add(1)
	key := memoKey{w.Name, budget}
	memoMu.Lock()
	e, ok := memos[key]
	cfg := spillCfg
	if !ok {
		e = &memoEntry{}
		memos[key] = e
	}
	memoMu.Unlock()
	e.once.Do(func() {
		captures.Add(1)
		if tf := TestCaptureTransform; tf != nil {
			e.bs = tf(w.Name, budget, trace.Capture(trace.NewLimit(w.Open(), budget)))
			return
		}
		if cfg.Threshold > 0 && budget >= cfg.Threshold {
			if bs, err := spillCapture(w, budget, cfg); err == nil {
				e.bs = bs
				return
			}
			// Spill failures (disk full, unwritable dir) fall back to the
			// in-memory path: slower or riskier for RAM, never wrong.
		}
		e.bs = trace.Capture(trace.NewLimit(w.Open(), budget))
	})
	return e.bs
}

// ReplayPrefix returns a capture of at least budget instructions,
// serving it from the single shared (workload, shareBudget) capture when
// the caller names a larger shared budget. Drivers clamp to their own
// budget, so any capture of >= budget records yields byte-identical
// results; tests pin this via the suite goldens.
func (w *Workload) ReplayPrefix(budget, shareBudget int64) trace.BlockSource {
	if TestCaptureTransform != nil || shareBudget <= budget {
		return w.Replay(budget)
	}
	return w.Replay(shareBudget)
}

// spillCapture streams the VM straight into a trace-store file and opens
// it lazily: peak memory is one block group plus the store's LRU cache,
// regardless of budget.
func spillCapture(w *Workload, budget int64, cfg SpillConfig) (trace.BlockSource, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.Dir, fmt.Sprintf("%s-%d.tcstore", w.Name, budget))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	_, werr := trace.WriteStore(f, trace.NewLimit(w.Open(), budget), trace.StoreOptions{Compress: cfg.Compress})
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(path)
		if werr != nil {
			return nil, werr
		}
		return nil, cerr
	}
	s, err := trace.OpenStoreFile(path, cfg.CacheBytes)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	spilled.Add(1)
	spilledOnDisk.Add(s.SizeBytes())
	return s, nil
}

// CaptureCount returns the number of VM trace captures performed so far;
// tests assert its delta to prove each (workload, budget) key executes the
// VM at most once.
func CaptureCount() int64 { return captures.Load() }

// MemoCounters returns the number of Replay calls and the number of VM
// captures those calls performed; the difference is the memo's hit count,
// reported in the run-level telemetry.
func MemoCounters() (replayCalls, captureCount int64) {
	return replays.Load(), captures.Load()
}

// SpillStats returns the number of captures spilled to trace-store files
// and their total on-disk size in bytes.
func SpillStats() (spilledCaptures, diskBytes int64) {
	return spilled.Load(), spilledOnDisk.Load()
}

// MemoStats reports the number of memoized (workload, budget) keys and
// their total resident size in bytes: captured columns for in-memory
// captures, on-disk file size for spilled ones.
func MemoStats() (keys int, bytes int64) {
	memoMu.Lock()
	defer memoMu.Unlock()
	for _, e := range memos {
		keys++
		switch bs := e.bs.(type) {
		case *trace.Replay:
			bytes += bs.MemBytes()
		case *trace.Store:
			bytes += bs.SizeBytes()
		}
	}
	return keys, bytes
}

// ResetMemo drops all memoized traces (tests; budget sweeps that would
// otherwise accumulate unbounded captures). In-flight Replay calls holding
// old entries are unaffected, so spilled stores are not closed here; their
// files remain readable until the process exits.
func ResetMemo() {
	memoMu.Lock()
	defer memoMu.Unlock()
	memos = map[memoKey]*memoEntry{}
}
