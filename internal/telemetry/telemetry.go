// Package telemetry is the simulation observability layer: per-jump-site
// prediction statistics, a bounded misprediction event log, and run-level
// execution metrics, all exported as machine-readable JSON and as the
// plain-text per-site report behind `tcsim -sites`.
//
// The paper's analysis (Table 1, Figures 1-8) is built from per-site
// statistics — dynamic counts, distinct targets per site, dominant-target
// skew — that the experiment pipeline otherwise aggregates away before
// rendering. A Collector recaptures them at the one point every simulation
// driver shares, sim.Engine.Resolve, so accuracy runs, flush runs and both
// timing models are instrumented identically.
//
// Cost model: a Collector is attached per simulation run (per cell) and is
// owned by exactly one goroutine; the disabled path is a single nil check
// per resolved indirect jump, verified to cost <2% of simulation
// throughput by TestDisabledTelemetryOverhead in internal/sim. Per-cell
// collectors are merged into a race-safe run-level Recorder when their
// cell completes; everything rendered from the merged state is sorted, so
// reports are byte-identical at any worker count.
package telemetry

import (
	"math"
	"sort"
)

// DefaultTopK is the number of targets reported per site when
// Config.TopK is unset.
const DefaultTopK = 8

// Per-site exact-tracking bounds: beyond these many distinct values the
// remainder is lumped into an overflow bucket (counted, not enumerated),
// keeping a pathological site from growing telemetry without bound. The
// bounds comfortably exceed the paper's ">=30 targets" histogram cap.
const (
	maxTrackedTargets   = 64
	maxTrackedHistories = 256
)

// Config sizes a telemetry collection.
type Config struct {
	// TopK is the number of top targets reported per site; 0 means
	// DefaultTopK.
	TopK int
	// Events is the capacity of each cell's misprediction event ring;
	// 0 disables the event log. When more mispredictions occur than fit,
	// the ring keeps the most recent Events of them.
	Events int
}

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
	return c
}

// Event is one logged misprediction: the site, the history the predictor
// was indexed with, what it said versus what happened, and when.
type Event struct {
	// PC is the indirect jump's address.
	PC uint64 `json:"pc"`
	// History is the fetch-time history value the target cache was
	// indexed with (0 for the BTB-only baseline).
	History uint64 `json:"history"`
	// Predicted is the front end's target; NoPrediction marks branches
	// the front end had no target for at all (BTB miss or predicted
	// not-taken), in which case Predicted is 0.
	Predicted    uint64 `json:"predicted"`
	NoPrediction bool   `json:"no_prediction,omitempty"`
	// Actual is the resolved target.
	Actual uint64 `json:"actual"`
	// Cycle is the driver's clock at resolution: the resolve cycle in
	// timing runs, the instruction index in accuracy runs.
	Cycle int64 `json:"cycle"`
}

// site accumulates one static indirect jump's statistics.
type site struct {
	executions  int64
	mispredicts int64
	// targets counts dynamic executions per resolved target; histories
	// counts occurrences per fetch-time history value. Both are bounded:
	// once full, further new values land in the overflow counters.
	targets         map[uint64]int64
	targetOverflow  int64
	histories       map[uint64]int64
	historyOverflow int64
}

// Collector gathers per-site statistics and the misprediction event log
// for ONE simulation run. It is single-goroutine by design (each
// simulation cell owns its collector); merging across cells goes through
// a Recorder. A nil *Collector is valid and records nothing.
type Collector struct {
	cfg   Config
	clock int64
	sites map[uint64]*site
	ring  []Event
	next  int   // ring write position
	seen  int64 // mispredictions offered to the ring
}

// NewCollector returns an empty collector sized by cfg.
func NewCollector(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{cfg: cfg, sites: make(map[uint64]*site)}
	if cfg.Events > 0 {
		c.ring = make([]Event, 0, cfg.Events)
	}
	return c
}

// SetClock sets the timestamp recorded on subsequent events: simulation
// drivers call it with their notion of "now" (cycle or instruction index)
// before resolving a branch. Nil-safe.
func (c *Collector) SetClock(v int64) {
	if c != nil {
		c.clock = v
	}
}

// Indirect records one resolved indirect jump: the site, the history the
// predictor saw, the predicted target (hasPrediction false when the front
// end had none), the actual target, and whether the prediction was
// correct. The caller must be the collector's owning goroutine.
func (c *Collector) Indirect(pc, hist, predicted uint64, hasPrediction bool, actual uint64, correct bool) {
	s := c.sites[pc]
	if s == nil {
		s = &site{targets: make(map[uint64]int64), histories: make(map[uint64]int64)}
		c.sites[pc] = s
	}
	s.executions++
	bumpBounded(s.targets, &s.targetOverflow, actual, 1, maxTrackedTargets)
	bumpBounded(s.histories, &s.historyOverflow, hist, 1, maxTrackedHistories)
	if correct {
		return
	}
	s.mispredicts++
	if c.cfg.Events == 0 {
		return
	}
	ev := Event{PC: pc, History: hist, Predicted: predicted, NoPrediction: !hasPrediction, Actual: actual, Cycle: c.clock}
	if !hasPrediction {
		ev.Predicted = 0
	}
	c.push(ev)
}

// push appends ev to the ring, overwriting the oldest entry when full.
func (c *Collector) push(ev Event) {
	c.seen++
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, ev)
		c.next = len(c.ring) % cap(c.ring)
		return
	}
	c.ring[c.next] = ev
	c.next = (c.next + 1) % cap(c.ring)
}

// Events returns the logged mispredictions in chronological order and the
// number that no longer fit in the ring.
func (c *Collector) Events() (events []Event, dropped int64) {
	if c == nil || len(c.ring) == 0 {
		return nil, 0
	}
	events = make([]Event, len(c.ring))
	for i := range events {
		events[i] = *c.event(i)
	}
	return events, c.seen - int64(len(c.ring))
}

// Clocks returns the clocks of the retained events, oldest first.
// Nil-safe.
func (c *Collector) Clocks() []int64 {
	if c == nil {
		return nil
	}
	clocks := make([]int64, len(c.ring))
	for i := range clocks {
		clocks[i] = c.event(i).Cycle
	}
	return clocks
}

// Restamp replaces the clocks of the oldest len(clocks) retained events
// with clocks, in order. A driver that resolves branches ahead of its
// clock — a predictor pass stamping instruction indices for a pipeline
// pass that later learns each branch's resolve cycle — uses it to restamp
// the events it kept. Nil-safe.
func (c *Collector) Restamp(clocks []int64) {
	if c == nil {
		return
	}
	for i, v := range clocks[:min(len(clocks), len(c.ring))] {
		c.event(i).Cycle = v
	}
}

// event returns the i-th oldest retained event.
func (c *Collector) event(i int) *Event {
	if len(c.ring) == cap(c.ring) {
		return &c.ring[(c.next+i)%len(c.ring)]
	}
	return &c.ring[i]
}

// bumpBounded adds n to m[k], unless m is full and k is new, in which
// case n lands in the overflow counter.
func bumpBounded(m map[uint64]int64, overflow *int64, k uint64, n int64, bound int) {
	if _, ok := m[k]; !ok && len(m) >= bound {
		*overflow += n
		return
	}
	m[k] += n
}

// merge folds o into c. Both collectors must be quiescent. To keep the
// bounded maps deterministic regardless of Go's map iteration order, o's
// entries are merged in sorted-key order (hottest targets first, so the
// most significant entries survive the bound).
func (c *Collector) merge(o *Collector) {
	for _, pc := range sortedKeys(o.sites) {
		os := o.sites[pc]
		s := c.sites[pc]
		if s == nil {
			s = &site{targets: make(map[uint64]int64), histories: make(map[uint64]int64)}
			c.sites[pc] = s
		}
		s.executions += os.executions
		s.mispredicts += os.mispredicts
		mergeBounded(s.targets, &s.targetOverflow, os.targets, maxTrackedTargets)
		s.targetOverflow += os.targetOverflow
		mergeBounded(s.histories, &s.historyOverflow, os.histories, maxTrackedHistories)
		s.historyOverflow += os.historyOverflow
	}
	events, dropped := o.Events()
	if c.cfg.Events > 0 {
		for _, ev := range events {
			c.push(ev)
		}
		c.seen += dropped
	}
}

// mergeBounded folds src into dst (bounded), hottest entries first so the
// survivors are deterministic and the most significant.
func mergeBounded(dst map[uint64]int64, overflow *int64, src map[uint64]int64, bound int) {
	keys := sortedKeys(src)
	sort.SliceStable(keys, func(i, j int) bool { return src[keys[i]] > src[keys[j]] })
	for _, k := range keys {
		bumpBounded(dst, overflow, k, src[k], bound)
	}
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// entropy returns the Shannon entropy (bits) of the distribution given by
// counts plus one overflow bucket. Keys are summed in sorted order so the
// floating-point result is bit-identical across runs.
func entropy(counts map[uint64]int64, overflow int64) float64 {
	var total int64 = overflow
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, k := range sortedKeys(counts) {
		if n := counts[k]; n > 0 {
			p := float64(n) / float64(total)
			h -= p * math.Log2(p)
		}
	}
	if overflow > 0 {
		p := float64(overflow) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}
