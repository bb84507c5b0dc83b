package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Key identifies one simulation cell's telemetry: the experiment it ran
// under, the benchmark it simulated, and the predictor configuration.
// Empty components are omitted from the rendered label.
type Key struct {
	Experiment string `json:"experiment,omitempty"`
	Workload   string `json:"workload,omitempty"`
	Config     string `json:"config,omitempty"`
}

// String renders the "experiment/workload/config" label, skipping empty
// parts — the same label shape bench.CellError uses.
func (k Key) String() string {
	out := ""
	for _, p := range []string{k.Experiment, k.Workload, k.Config} {
		if p == "" {
			continue
		}
		if out != "" {
			out += "/"
		}
		out += p
	}
	return out
}

func (k Key) less(o Key) bool {
	if k.Experiment != o.Experiment {
		return k.Experiment < o.Experiment
	}
	if k.Workload != o.Workload {
		return k.Workload < o.Workload
	}
	return k.Config < o.Config
}

// Recorder is the run-level telemetry sink: simulation cells merge their
// private Collectors into it as they complete, and it tallies run-level
// execution metrics (cells started/failed/recovered, worker busy time).
// All methods are safe for concurrent use and nil-safe, so callers thread
// a possibly-nil *Recorder through without guarding every call site.
type Recorder struct {
	cfg Config

	mu    sync.Mutex
	cells map[Key]*Collector

	cellsStarted   atomic.Int64
	cellsFailed    atomic.Int64
	cellsRecovered atomic.Int64
	busyNS         atomic.Int64
}

// NewRecorder returns an empty recorder whose collectors use cfg.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{cfg: cfg.withDefaults(), cells: make(map[Key]*Collector)}
}

// NewCollector returns a fresh per-cell collector, or nil when r is nil —
// so disabled telemetry costs callers exactly one nil check.
func (r *Recorder) NewCollector() *Collector {
	if r == nil {
		return nil
	}
	return NewCollector(r.cfg)
}

// Merge folds a completed cell's collector into the recorder under k.
// Merging the same key twice accumulates (a cell may run several
// simulation kernels). Nil recorder or collector is a no-op.
func (r *Recorder) Merge(k Key, c *Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.cells[k]; ok {
		prev.merge(c)
		return
	}
	r.cells[k] = c
}

// CellStarted counts one simulation cell beginning execution.
func (r *Recorder) CellStarted() {
	if r != nil {
		r.cellsStarted.Add(1)
	}
}

// CellFailed counts one cell that completed with an error.
func (r *Recorder) CellFailed() {
	if r != nil {
		r.cellsFailed.Add(1)
	}
}

// CellRecovered counts one cell whose failure was a recovered panic (a
// subset of CellFailed).
func (r *Recorder) CellRecovered() {
	if r != nil {
		r.cellsRecovered.Add(1)
	}
}

// AddBusy accounts d of worker busy time (one cell's wall clock).
func (r *Recorder) AddBusy(d time.Duration) {
	if r != nil {
		r.busyNS.Add(int64(d))
	}
}

// RunInfo carries the run-level facts only the caller knows (the recorder
// cannot see the process clock, the memo, or the worker count).
type RunInfo struct {
	// Workers is the configured worker-pool size.
	Workers int
	// Wall is the run's total wall-clock time.
	Wall time.Duration
	// Instructions is the total simulated instruction count.
	Instructions int64
	// MemoCaptures and MemoHits describe the trace memo: captures
	// executed the VM, hits reused a capture. MemoBytes is the resident
	// encoded size.
	MemoCaptures, MemoHits, MemoBytes int64
	// StoreCacheHits/Misses are the out-of-core trace store's group
	// counters (trace.CacheStats); SpilledCaptures and SpilledBytes
	// describe captures spilled to trace-store files instead of held in
	// memory.
	StoreCacheHits, StoreCacheMisses int64
	SpilledCaptures, SpilledBytes    int64
	// Interrupted marks a run cancelled before completing (SIGINT); the
	// exported telemetry covers the cells that finished.
	Interrupted bool
}

// RunMetrics is the run-level section of the telemetry report.
type RunMetrics struct {
	CellsStarted   int64 `json:"cells_started"`
	CellsFailed    int64 `json:"cells_failed"`
	CellsRecovered int64 `json:"cells_recovered"`

	MemoCaptures int64 `json:"memo_captures"`
	MemoHits     int64 `json:"memo_hits"`
	MemoBytes    int64 `json:"memo_bytes"`

	// Out-of-core trace-store counters; omitempty so reports from runs
	// that never spill (including the golden fixtures) are unchanged.
	StoreCacheHits   int64 `json:"store_cache_hits,omitempty"`
	StoreCacheMisses int64 `json:"store_cache_misses,omitempty"`
	SpilledCaptures  int64 `json:"spilled_captures,omitempty"`
	SpilledBytes     int64 `json:"spilled_bytes,omitempty"`

	Workers int     `json:"workers"`
	WallMS  float64 `json:"wall_ms"`
	BusyMS  float64 `json:"busy_ms"`
	// Occupancy is BusyMS / (WallMS * Workers): the fraction of the
	// worker pool's capacity spent inside simulation cells.
	Occupancy float64 `json:"worker_occupancy"`

	Instructions int64 `json:"instructions_simulated"`
	Interrupted  bool  `json:"interrupted,omitempty"`
}

// TargetShare is one entry of a site's top-target histogram.
type TargetShare struct {
	Target string `json:"target"`
	Count  int64  `json:"count"`
}

// SiteReport is one static indirect jump's statistics within a cell.
type SiteReport struct {
	PC             string  `json:"pc"`
	Executions     int64   `json:"executions"`
	Mispredicts    int64   `json:"mispredicts"`
	MispredictRate float64 `json:"mispredict_rate"`
	// DistinctTargets counts exactly-tracked targets;
	// TargetOverflow counts executions whose target fell beyond the
	// per-site tracking bound (0 in practice for these workloads).
	DistinctTargets int           `json:"distinct_targets"`
	TargetOverflow  int64         `json:"target_overflow,omitempty"`
	TopTargets      []TargetShare `json:"top_targets"`
	// DominantShare is the hottest target's fraction of the site's
	// executions — the dominant-target skew behind Figures 1-8.
	DominantShare float64 `json:"dominant_share"`
	// TargetEntropy and HistoryEntropy are Shannon entropies (bits) of
	// the site's target and fetch-time-history distributions.
	TargetEntropy  float64 `json:"target_entropy_bits"`
	HistoryEntropy float64 `json:"history_entropy_bits"`
}

// CellReport is one cell's telemetry: its per-site statistics and the
// tail of its misprediction event log.
type CellReport struct {
	Key
	Sites         []SiteReport `json:"sites"`
	Events        []Event      `json:"events,omitempty"`
	EventsDropped int64        `json:"events_dropped,omitempty"`
}

// Report is the full exported telemetry document.
type Report struct {
	Run   RunMetrics   `json:"run"`
	Cells []CellReport `json:"cells"`
}

// Report renders the recorder's merged state. Cells and sites are fully
// sorted, so two runs of the same configuration produce identical
// documents regardless of worker count or completion order.
func (r *Recorder) Report(info RunInfo) *Report {
	rep := &Report{
		Run: RunMetrics{
			MemoCaptures:     info.MemoCaptures,
			MemoHits:         info.MemoHits,
			MemoBytes:        info.MemoBytes,
			StoreCacheHits:   info.StoreCacheHits,
			StoreCacheMisses: info.StoreCacheMisses,
			SpilledCaptures:  info.SpilledCaptures,
			SpilledBytes:     info.SpilledBytes,
			Workers:          info.Workers,
			WallMS:           float64(info.Wall.Microseconds()) / 1000,
			Instructions:     info.Instructions,
			Interrupted:      info.Interrupted,
		},
	}
	if r == nil {
		return rep
	}
	rep.Run.CellsStarted = r.cellsStarted.Load()
	rep.Run.CellsFailed = r.cellsFailed.Load()
	rep.Run.CellsRecovered = r.cellsRecovered.Load()
	rep.Run.BusyMS = float64(time.Duration(r.busyNS.Load()).Microseconds()) / 1000
	if info.Workers > 0 && rep.Run.WallMS > 0 {
		rep.Run.Occupancy = rep.Run.BusyMS / (rep.Run.WallMS * float64(info.Workers))
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]Key, 0, len(r.cells))
	for k := range r.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, k := range keys {
		rep.Cells = append(rep.Cells, cellReport(k, r.cells[k], r.cfg.TopK))
	}
	return rep
}

// cellReport renders one collector's state.
func cellReport(k Key, c *Collector, topK int) CellReport {
	cr := CellReport{Key: k}
	for _, pc := range sortedKeys(c.sites) {
		cr.Sites = append(cr.Sites, siteReport(pc, c.sites[pc], topK))
	}
	cr.Events, cr.EventsDropped = c.Events()
	return cr
}

func siteReport(pc uint64, s *site, topK int) SiteReport {
	sr := SiteReport{
		PC:              hex(pc),
		Executions:      s.executions,
		Mispredicts:     s.mispredicts,
		DistinctTargets: len(s.targets),
		TargetOverflow:  s.targetOverflow,
		TargetEntropy:   entropy(s.targets, s.targetOverflow),
		HistoryEntropy:  entropy(s.histories, s.historyOverflow),
	}
	if s.executions > 0 {
		sr.MispredictRate = float64(s.mispredicts) / float64(s.executions)
	}
	// Top-K targets by count, ties broken by address, so the histogram is
	// deterministic.
	targets := sortedKeys(s.targets)
	sort.SliceStable(targets, func(i, j int) bool { return s.targets[targets[i]] > s.targets[targets[j]] })
	for i, t := range targets {
		if i >= topK {
			break
		}
		sr.TopTargets = append(sr.TopTargets, TargetShare{Target: hex(t), Count: s.targets[t]})
	}
	if len(targets) > 0 && s.executions > 0 {
		sr.DominantShare = float64(s.targets[targets[0]]) / float64(s.executions)
	}
	return sr
}
