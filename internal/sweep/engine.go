package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/fsutil"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Result is the outcome of one grid point. Every field is deterministic —
// pure counts, never wall time — so a sweep's result set is byte-identical
// across runs, worker counts and resume boundaries.
type Result struct {
	Point        Point `json:"point"`
	StorageBits  int   `json:"storage_bits"`
	Instructions int64 `json:"instructions"`
	Branches     int64 `json:"branches"`
	// Indirect/IndirectMiss are the paper's headline population: indirect
	// jump and indirect call predictions and mispredictions.
	Indirect     int64 `json:"indirect"`
	IndirectMiss int64 `json:"indirect_miss"`
	// Overall/OverallMiss cover every control-transfer prediction.
	Overall     int64 `json:"overall"`
	OverallMiss int64 `json:"overall_miss"`
	// TCCovered counts indirect jumps the target cache predicted (vs the
	// BTB fallback); always zero for btb-family points.
	TCCovered int64 `json:"tc_covered,omitempty"`
}

// Rate returns the indirect-jump misprediction rate, the frontier's
// accuracy axis.
func (r Result) Rate() float64 {
	if r.Indirect == 0 {
		return 0
	}
	return float64(r.IndirectMiss) / float64(r.Indirect)
}

// Options configures a sweep run.
type Options struct {
	// Workers bounds simulation concurrency; <= 1 runs serially.
	Workers int
	// ShardSize is the number of consecutive points per checkpoint shard
	// (default 32). It participates in the resume fingerprint: the same
	// spec at a different shard size is a different run shape.
	ShardSize int
	// ManifestPath enables crash-safe resume: completed shards are
	// recorded there atomically, and a later run with the same spec and
	// shard size skips them. Empty disables checkpointing.
	ManifestPath string
	// GangWidth bounds how many points one fused unit updates: 0 picks
	// a width per unit automatically from a memory budget, 1 disables
	// fusion (every point walks the capture on its own), higher values
	// force that width. Results are byte-identical at any width — the
	// gang kernel and the kept walk are equivalence-pinned against
	// per-point simulation — so the width, like the worker count, is
	// absent from the resume fingerprint.
	GangWidth int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// AfterShard, when non-nil, runs after each shard completes (and its
	// checkpoint, if any, is durable), with the completed and total shard
	// counts. Drivers use it for progress bars and for pacing in
	// interrupt/resume exercises.
	AfterShard func(completed, total int)
}

const defaultShardSize = 32

func (o Options) shardSize() int {
	if o.ShardSize <= 0 {
		return defaultShardSize
	}
	return o.ShardSize
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Outcome is a completed sweep: one Result per expanded point, in
// canonical expansion order.
type Outcome struct {
	Spec           *Spec
	Fingerprint    string
	Results        []Result
	SkippedInvalid int
	// ResumedShards counts shards served from the manifest rather than
	// simulated in this run.
	ResumedShards int
	// Shards is the total checkpoint-shard count.
	Shards int
	// SimulatedInstructions counts instructions simulated by this run
	// (resumed shards contribute nothing).
	SimulatedInstructions int64
	// FusedGangs counts the fused capture walks this run made — one kept
	// front-end walk per workload with target-cache points, and one per
	// btb gang — and FusedPoints the points simulated from them: every
	// target-cache point replaying a kept walk, and every btb-gang
	// member. DirectPoints walked the capture once each (gang width 1, a
	// btb point alone in its shard, or fallbacks); GangFallbacks counts
	// units the fused kernel refused and the engine re-ran per point.
	// FusedGangs + DirectPoints is the walks made, FusedPoints -
	// FusedGangs the walks avoided.
	FusedGangs, FusedPoints, DirectPoints, GangFallbacks int64
}

// PassesAvoided reports the capture walks a per-point sweep would have
// made that fusion did not.
func (o *Outcome) PassesAvoided() int64 { return o.FusedPoints - o.FusedGangs }

// Fingerprint identifies the run shape a manifest's recorded shards are
// valid for: a digest of the canonical spec JSON plus the shard size.
// Worker count is deliberately absent — scheduling cannot change results.
func (s *Spec) Fingerprint(shardSize int) string {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal can only fail on invalid values that
		// Validate already rejects.
		panic(fmt.Sprintf("sweep: marshal spec: %v", err))
	}
	h := sha256.New()
	h.Write(data)
	fmt.Fprintf(h, "\nshard=%d", shardSize)
	return hex.EncodeToString(h.Sum(nil))
}

// manifestShard records one completed shard's results, keyed by shard
// index over the canonical point order.
type manifestShard struct {
	Index   int      `json:"index"`
	Results []Result `json:"results"`
}

type manifestFile struct {
	Schema      string          `json:"schema"`
	Fingerprint string          `json:"fingerprint"`
	ShardSize   int             `json:"shard_size"`
	Points      int             `json:"points"`
	Shards      []manifestShard `json:"shards"`
}

const manifestSchema = "sweep-manifest/v1"

func loadManifest(path, fingerprint string, shardSize, points int) (*manifestFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &manifestFile{
			Schema: manifestSchema, Fingerprint: fingerprint,
			ShardSize: shardSize, Points: points,
		}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: reading manifest: %w", err)
	}
	var m manifestFile
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("sweep: corrupt manifest %s: %w", path, err)
	}
	if m.Schema != manifestSchema {
		return nil, fmt.Errorf("sweep: manifest %s has schema %q, want %q", path, m.Schema, manifestSchema)
	}
	if m.Fingerprint != fingerprint || m.ShardSize != shardSize || m.Points != points {
		return nil, fmt.Errorf("sweep: manifest %s was recorded for a different sweep (spec, shard size or point count changed); delete it or rerun the original spec", path)
	}
	return &m, nil
}

// save writes the manifest atomically (temp file + rename) so a crash —
// including kill -9 — mid-save never leaves a truncated manifest behind.
func (m *manifestFile) save(path string) error {
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].Index < m.Shards[j].Index })
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// runPoint simulates one point. The capture store hands every point of a
// workload the same decoded trace (one VM capture per workload per
// process), and sim.Run's batched kernel consumes it block-wise.
func runPoint(ctx context.Context, w *workload.Workload, p Point, budget int64) (Result, error) {
	cfg, err := p.SimConfig()
	if err != nil {
		return Result{}, err
	}
	bits, err := p.StorageBits()
	if err != nil {
		return Result{}, err
	}
	res, err := sim.Run(ctx, w.Replay(budget), sim.Options{Budget: budget}, []sim.GangPoint{{Config: cfg}})
	if err != nil {
		return Result{}, err
	}
	return newResult(p, bits, res[0])
}

// newResult is the Result of point p, of storageBits bits, that sim
// reported as res, or res's early stop.
func newResult(p Point, storageBits int, res sim.AccuracyResult) (Result, error) {
	if res.Err != nil {
		return Result{}, res.Err
	}
	return Result{
		Point:        p,
		StorageBits:  storageBits,
		Instructions: res.Instructions,
		Branches:     res.Branches,
		Indirect:     res.Indirect.Predictions,
		IndirectMiss: res.Indirect.Mispredicts,
		Overall:      res.Overall.Predictions,
		OverallMiss:  res.Overall.Mispredicts,
		TCCovered:    res.TCCovered,
	}, nil
}

// Run expands the spec and simulates every point, scheduling shards with
// work-stealing across Options.Workers. With a manifest path set, each
// completed shard is checkpointed atomically; an interrupted run (context
// cancellation, crash, kill -9) resumes from the recorded shards and the
// final result set is byte-identical to an uninterrupted run at any
// worker count.
func Run(ctx context.Context, spec *Spec, opts Options) (*Outcome, error) {
	ex, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	workloads := make(map[string]*workload.Workload, len(spec.Workloads))
	for _, name := range spec.Workloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		workloads[name] = w
	}

	shardSize := opts.shardSize()
	fingerprint := spec.Fingerprint(shardSize)
	n := len(ex.Points)
	nShards := (n + shardSize - 1) / shardSize

	results := make([]Result, n)
	done := make([]bool, nShards)
	resumed := 0

	var man *manifestFile
	if opts.ManifestPath != "" {
		man, err = loadManifest(opts.ManifestPath, fingerprint, shardSize, n)
		if err != nil {
			return nil, err
		}
		for _, sh := range man.Shards {
			lo := sh.Index * shardSize
			if sh.Index < 0 || sh.Index >= nShards || len(sh.Results) != shardLen(n, shardSize, sh.Index) {
				return nil, fmt.Errorf("sweep: manifest %s shard %d does not match the expansion", opts.ManifestPath, sh.Index)
			}
			copy(results[lo:], sh.Results)
			done[sh.Index] = true
			resumed++
		}
		if resumed > 0 {
			opts.logf("resuming: %d/%d shards already recorded in %s", resumed, nShards, opts.ManifestPath)
		}
	}

	var (
		mu      sync.Mutex // guards man, saveErr, runErr, comp, instrs, units
		saveErr error
		runErr  error
		comp    int
		instrs  int64
		units   unitCounters
	)
	var walks *walkSet
	if opts.GangWidth != 1 {
		walks = newWalkSet(ex.Points, spec.Budget, shardSize, func(si int) bool { return !done[si] })
	}
	pool.Run(opts.Workers, nShards, func(si int) {
		if done[si] || ctx.Err() != nil {
			return
		}
		mu.Lock()
		stop := runErr != nil || saveErr != nil
		mu.Unlock()
		if stop {
			return
		}
		lo := si * shardSize
		hi := lo + shardLen(n, shardSize, si)
		shard := make([]Result, hi-lo)
		var uc unitCounters
		for _, unit := range planUnits(ex.Points, lo, hi, opts.GangWidth) {
			rs, key, err := runUnit(ctx, workloads[ex.Points[unit[0]].Workload], ex.Points, unit, spec.Budget, walks, &uc)
			if err != nil {
				if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					mu.Lock()
					if runErr == nil {
						runErr = fmt.Errorf("sweep: point %s: %w", key, err)
					}
					mu.Unlock()
				}
				// A cancelled or failed shard is never recorded: only
				// clean shards enter the manifest, so a resumed run
				// re-simulates exactly the unfinished work.
				return
			}
			// Units place results positionally, so the recorded shard is
			// byte-identical to a per-point walk at any gang width.
			for ui, i := range unit {
				shard[i-lo] = rs[ui]
			}
		}
		copy(results[lo:hi], shard)
		var shardInstrs int64
		for _, r := range shard {
			shardInstrs += r.Instructions
		}
		mu.Lock()
		comp++
		instrs += shardInstrs
		units.fusedGangs += uc.fusedGangs
		units.fusedPoints += uc.fusedPoints
		units.directPoints += uc.directPoints
		units.fallbacks += uc.fallbacks
		completed := comp + resumed
		if man != nil && saveErr == nil {
			man.Shards = append(man.Shards, manifestShard{Index: si, Results: shard})
			if err := man.save(opts.ManifestPath); err != nil {
				saveErr = fmt.Errorf("sweep: checkpointing shard %d: %w", si, err)
			}
		}
		logNow := comp%8 == 0 || comp == nShards-resumed
		mu.Unlock()
		if logNow {
			opts.logf("sweep: %d/%d shards complete (%d points)", completed, nShards, n)
		}
		if opts.AfterShard != nil {
			opts.AfterShard(completed, nShards)
		}
	})

	if runErr != nil {
		return nil, runErr
	}
	if saveErr != nil {
		return nil, saveErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: interrupted with %d/%d shards recorded: %w", comp+resumed, nShards, err)
	}
	return &Outcome{
		Spec:                  spec,
		Fingerprint:           fingerprint,
		Results:               results,
		SkippedInvalid:        ex.SkippedInvalid,
		ResumedShards:         resumed,
		Shards:                nShards,
		SimulatedInstructions: instrs,
		FusedGangs:            units.fusedGangs,
		FusedPoints:           units.fusedPoints,
		DirectPoints:          units.directPoints,
		GangFallbacks:         units.fallbacks,
	}, nil
}

// shardLen returns the point count of shard si over n points.
func shardLen(n, shardSize, si int) int {
	lo := si * shardSize
	if lo >= n {
		return 0
	}
	if n-lo < shardSize {
		return n - lo
	}
	return shardSize
}
