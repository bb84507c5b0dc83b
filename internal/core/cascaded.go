package core

import (
	"fmt"

	"repro/internal/cache"
)

// Cascaded is the follow-up design of Driesen & Hölzle ("The Cascaded
// Predictor", 1998), included as a beyond-the-paper comparator: a small
// address-indexed first stage backs a history-indexed second stage, and —
// the key idea — the second stage is *filtered*: an entry is allocated
// there only when the first stage mispredicts, so monomorphic jumps never
// consume history-indexed capacity.
//
// Like Tagged, it remembers Predict's last first-stage hit, so the Update
// of the same pc refreshes that line and writes it without scanning the
// set again; Update and Reset forget it. The LRU tick and statistics
// stream is the full walk's.
type Cascaded struct {
	cfg    CascadedConfig
	stage1 *cache.Cache[uint64] // pc-indexed, last-target (BTB-like)
	stage2 *Tagged              // history-indexed
	memo   stage1Memo
}

// stage1Memo is a first-stage lookup that hit: its pc, set, tag and way;
// ok marks it live.
type stage1Memo struct {
	pc, tag  uint64
	set, way int
	ok       bool
}

// CascadedConfig describes a cascaded indirect-target predictor.
type CascadedConfig struct {
	// Stage1Entries/Stage1Ways give the address-indexed stage geometry.
	Stage1Entries, Stage1Ways int
	// Stage2 is the history-indexed stage configuration.
	Stage2 TaggedConfig
	// Filtered enables allocation filtering (the defining feature); with
	// it off the structure degenerates to "tagged target cache plus a
	// private BTB", useful as an ablation.
	Filtered bool
}

// DefaultCascadedConfig returns a filtered cascade with a 128-entry first
// stage and a 256-entry 4-way second stage.
func DefaultCascadedConfig() CascadedConfig {
	return CascadedConfig{
		Stage1Entries: 128,
		Stage1Ways:    2,
		Stage2: TaggedConfig{
			Entries: 256, Ways: 4, Scheme: SchemeHistoryXor, HistBits: 9,
		},
		Filtered: true,
	}
}

// Validate checks the configuration.
func (c CascadedConfig) Validate() error {
	if c.Stage1Entries <= 0 || c.Stage1Ways <= 0 ||
		c.Stage1Entries%c.Stage1Ways != 0 {
		return fmt.Errorf("core: invalid cascade stage-1 geometry %d/%d",
			c.Stage1Entries, c.Stage1Ways)
	}
	return c.Stage2.Validate()
}

// NewCascaded builds a cascaded predictor. It panics on invalid
// configuration.
func NewCascaded(cfg CascadedConfig) *Cascaded {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cascaded{
		cfg:    cfg,
		stage1: cache.New[uint64](cfg.Stage1Entries/cfg.Stage1Ways, cfg.Stage1Ways),
		stage2: NewTagged(cfg.Stage2),
	}
}

// stage1Index splits pc's word address into the first stage's set and
// tag.
func (c *Cascaded) stage1Index(pc uint64) (int, uint64) {
	return c.stage1.IndexOf(pc >> 2)
}

// Predict implements TargetCache: the second (history) stage wins when it
// hits; otherwise the first stage's last target is used.
func (c *Cascaded) Predict(pc, hist uint64) (uint64, bool) {
	if tgt, ok := c.stage2.Predict(pc, hist); ok {
		return tgt, true
	}
	set, tag := c.stage1Index(pc)
	v, way, ok := c.stage1.LookupWay(set, tag)
	m := &c.memo
	m.pc, m.tag, m.set, m.way, m.ok = pc, tag, set, way, ok
	if !ok {
		return 0, false
	}
	return *v, true
}

// Update implements TargetCache. The first stage always learns the last
// target. The second stage updates an existing entry, but allocates a new
// one only if (when filtering) the first stage just mispredicted — i.e.
// the jump demonstrated polymorphism.
func (c *Cascaded) Update(pc, hist, target uint64) {
	var set, way int
	var tag uint64
	stage1Correct := false
	if m := &c.memo; m.ok && m.pc == pc {
		set, tag, way = m.set, m.tag, m.way
		stage1Correct = *c.stage1.TouchWay(set, way) == target
	} else {
		set, tag = c.stage1Index(pc)
		var v *uint64
		var ok bool
		if v, way, ok = c.stage1.LookupWay(set, tag); ok {
			stage1Correct = *v == target
		}
	}
	c.memo.ok = false
	if _, hit := c.stage2.Predict(pc, hist); hit || !c.cfg.Filtered || !stage1Correct {
		c.stage2.Update(pc, hist, target)
	}
	v, _ := c.stage1.InsertWay(set, way, tag)
	*v = target
}

// CostBits returns the configuration's storage cost in bits: 32-bit
// last-target entries in the first stage plus the second stage's tagged
// accounting.
func (c CascadedConfig) CostBits() int {
	return c.Stage1Entries*32 + c.Stage2.CostBits()
}

// CostBits implements TargetCache via the configuration's accounting.
func (c *Cascaded) CostBits() int { return c.cfg.CostBits() }

// Reset implements TargetCache.
func (c *Cascaded) Reset() {
	c.stage1.Reset()
	c.stage2.Reset()
	c.memo.ok = false
}

var _ TargetCache = (*Cascaded)(nil)
