// Package btb implements the branch target buffer the paper uses as its
// baseline target predictor, including the default target-update strategy
// and Calder & Grunwald's 2-bit strategy (Section 2, Tables 1 and 2), plus
// the return address stack used for return instructions.
package btb

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Strategy selects the BTB's target-update policy for indirect jumps.
type Strategy uint8

const (
	// StrategyDefault updates the stored target on every indirect-jump
	// misprediction, so the BTB always predicts the last computed target.
	StrategyDefault Strategy = iota
	// StrategyTwoBit (Calder & Grunwald) does not replace a BTB entry's
	// target address until two consecutive predictions with that target
	// have been incorrect.
	StrategyTwoBit
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyDefault:
		return "default"
	case StrategyTwoBit:
		return "2-bit"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Config describes a BTB. The paper's baseline is 256 sets, 4 ways
// (a 1K-entry 4-way set-associative BTB).
type Config struct {
	Sets     int
	Ways     int
	Strategy Strategy
}

// DefaultConfig returns the paper's baseline BTB geometry.
func DefaultConfig() Config {
	return Config{Sets: 256, Ways: 4, Strategy: StrategyDefault}
}

// CostBits returns the BTB's storage cost in bits, pricing per entry a
// 32-bit target, a 3-bit branch class, the word-address tag left over
// after set selection (30 bits minus log2(Sets)), per-way LRU state and a
// valid bit, plus the 2-bit replacement counter under StrategyTwoBit. The
// paper treats the BTB as an unpriced baseline; this accounting exists so
// design-space sweeps can place BTB geometries on the same
// accuracy-vs-storage axis as the target caches. Sets and Ways must be
// positive powers of two.
func (c Config) CostBits() int {
	tagBits := 30 - bits.TrailingZeros(uint(c.Sets))
	if tagBits < 0 {
		tagBits = 0
	}
	per := 32 + 3 + tagBits + bits.TrailingZeros(uint(c.Ways)) + 1
	if c.Strategy == StrategyTwoBit {
		per += 2
	}
	return c.Sets * c.Ways * per
}

// Holds reports whether a BTB of this geometry holds all of pcs at once:
// no set gets more of their distinct word addresses than it has ways.
// PCs split into sets as the BTB indexes them (the cache's IndexOf of
// pc>>2, whose set is the word modulo Sets). A BTB allocates entries only
// for taken branches, so one that holds the PCs of every taken branch it
// sees never evicts, and behaves exactly like an unbounded one. An
// impossible geometry holds nothing.
func (c Config) Holds(pcs []uint64) bool {
	if c.Sets <= 0 || c.Ways <= 0 {
		return false
	}
	words := make([]uint64, len(pcs))
	for i, pc := range pcs {
		words[i] = pc >> 2
	}
	slices.Sort(words)
	words = slices.Compact(words) // PCs of one word share its entry
	for i := range words {
		words[i] %= uint64(c.Sets)
	}
	slices.Sort(words)
	run := 0
	for i, set := range words {
		if run++; i > 0 && set != words[i-1] {
			run = 1
		}
		if run > c.Ways {
			return false
		}
	}
	return true
}

// Entry is the payload stored per BTB entry: the predicted (taken) target,
// the branch class so the fetch engine knows how to treat the instruction,
// and the 2-bit strategy's consecutive-misprediction counter.
type Entry struct {
	Target    uint64
	Class     trace.Class
	missCount uint8
}

// BTB is a set-associative branch target buffer.
type BTB struct {
	cfg Config
	c   *cache.Cache[Entry]
}

// New returns a BTB for cfg.
func New(cfg Config) *BTB {
	return &BTB{cfg: cfg, c: cache.New[Entry](cfg.Sets, cfg.Ways)}
}

// Config returns the BTB configuration.
func (b *BTB) Config() Config { return b.cfg }

func (b *BTB) index(pc uint64) (set int, tag uint64) {
	// The shared cache owns the set/tag split; its power-of-two fast path
	// covers the paper's 256-set geometry with a mask and shift.
	return b.c.IndexOf(pc >> 2)
}

// Lookup probes the BTB at fetch time. A hit returns the stored entry
// (by value) so the fetch engine can detect the branch and predict the
// last-computed target.
func (b *BTB) Lookup(pc uint64) (Entry, bool) {
	set, tag := b.index(pc)
	e, ok := b.c.Lookup(set, tag)
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Hit is an opaque reference to the BTB line a Probe hit; UpdateHit uses
// it to skip re-scanning the set at resolve time.
type Hit struct {
	set, way int
}

// Probe is Lookup returning, additionally, a Hit reference for a
// subsequent UpdateHit on the same PC.
func (b *BTB) Probe(pc uint64) (Entry, Hit, bool) {
	set, tag := b.index(pc)
	e, way, ok := b.c.LookupWay(set, tag)
	if !ok {
		return Entry{}, Hit{set, -1}, false
	}
	return *e, Hit{set, way}, true
}

// UpdateHit is Update for a record whose fetch-time Probe hit the BTB and
// whose set has not been touched since: the entry is refreshed in place,
// with the same LRU/stats stream Update's find-or-allocate scan produces
// on a hit.
func (b *BTB) UpdateHit(h Hit, r *trace.Record) {
	if !r.Class.IsBranch() || !r.Taken {
		return
	}
	e := b.c.TouchWay(h.set, h.way)
	e.Class = r.Class
	if !r.Class.IsIndirect() {
		e.Target = r.Target
		e.missCount = 0
		return
	}
	if e.Target == r.Target {
		e.missCount = 0
		return
	}
	switch b.cfg.Strategy {
	case StrategyDefault:
		e.Target = r.Target
	case StrategyTwoBit:
		e.missCount++
		if e.missCount >= 2 {
			e.Target = r.Target
			e.missCount = 0
		}
	}
}

// Update records a resolved control-flow instruction. Entries are
// allocated for every taken branch (an entry whose branch was never taken
// would never redirect fetch). For indirect jumps the stored target evolves
// according to the configured strategy; for direct branches the target is
// static and simply (re)written.
func (b *BTB) Update(r *trace.Record) {
	if !r.Class.IsBranch() || !r.Taken {
		return
	}
	set, tag := b.index(r.PC)
	e, existed := b.c.Touch(set, tag)
	e.Class = r.Class
	if !existed || !r.Class.IsIndirect() {
		e.Target = r.Target
		e.missCount = 0
		return
	}
	// Indirect jump with an existing entry: apply the update strategy.
	if e.Target == r.Target {
		e.missCount = 0
		return
	}
	switch b.cfg.Strategy {
	case StrategyDefault:
		e.Target = r.Target
	case StrategyTwoBit:
		e.missCount++
		if e.missCount >= 2 {
			e.Target = r.Target
			e.missCount = 0
		}
	}
}

// Reset invalidates all entries.
func (b *BTB) Reset() { b.c.Reset() }

// CostBits returns the storage cost of the BTB in bits, using the paper's
// accounting: each entry consists of a valid bit, 2 least-recently-used
// bits, 22 tag bits, 30 target address bits, 2 branch type bits, 30
// fall-through address bits, and 3 branch history bits (90 bits/entry; the
// paper's 1K-entry BTB is "1024 x 90 bits").
func (b *BTB) CostBits() int {
	const bitsPerEntry = 1 + 2 + 22 + 30 + 2 + 30 + 3
	return b.cfg.Sets * b.cfg.Ways * bitsPerEntry
}
