package core

import (
	"fmt"

	"repro/internal/cache"
)

// TaggedScheme selects the index/tag split of a tagged target cache
// (Section 4.3.1).
type TaggedScheme uint8

const (
	// SchemeAddress uses the lower address bits for set selection; the
	// higher address bits XORed with the history form the tag. All targets
	// of one jump map to the same set, so low associativity suffers
	// conflict misses.
	SchemeAddress TaggedScheme = iota
	// SchemeHistoryConcat uses the lower history bits for set selection;
	// the higher history bits concatenated with address bits form the tag.
	SchemeHistoryConcat
	// SchemeHistoryXor XORs address and history, using the lower bits of
	// the result for set selection and the higher bits for the tag. This
	// spreads one jump's targets across sets, removing the need for high
	// associativity.
	SchemeHistoryXor
)

// String names the scheme as in Table 7.
func (s TaggedScheme) String() string {
	switch s {
	case SchemeAddress:
		return "Addr"
	case SchemeHistoryConcat:
		return "History Conc"
	case SchemeHistoryXor:
		return "History Xor"
	default:
		return fmt.Sprintf("TaggedScheme(%d)", uint8(s))
	}
}

// TaggedConfig describes a tagged target cache. The paper's tagged caches
// hold 256 entries total ("half the number of entries as that of tagless
// target caches to compensate for the hardware used to store tags") with
// associativity swept from 1 to 16.
type TaggedConfig struct {
	// Entries is the total entry count (sets × ways); a power of two.
	Entries int
	// Ways is the set associativity; must divide Entries and be a power
	// of two.
	Ways   int
	Scheme TaggedScheme
	// HistBits is the number of history bits folded into index and tag
	// (9 or 16 in Table 9). For tagged caches the history length is not
	// limited by the table size "because additional history bits can be
	// stored in the tag fields".
	HistBits int
	// TagBits bounds the stored tag width; 0 means a full tag. Narrower
	// tags model the hardware truncation and admit rare false hits.
	TagBits int
}

// Validate checks the configuration.
func (c TaggedConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("core: tagged entries %d not a power of two", c.Entries)
	}
	if c.Ways <= 0 || c.Ways&(c.Ways-1) != 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("core: invalid associativity %d for %d entries", c.Ways, c.Entries)
	}
	if c.HistBits < 1 || c.HistBits > 32 {
		return fmt.Errorf("core: invalid history length %d", c.HistBits)
	}
	if c.TagBits < 0 || c.TagBits > 64 {
		return fmt.Errorf("core: invalid tag width %d", c.TagBits)
	}
	return nil
}

// Name returns a short description, e.g. "History Xor 8-way".
func (c TaggedConfig) Name() string {
	return fmt.Sprintf("%s %d-way", c.Scheme, c.Ways)
}

// CostBits returns the configuration's storage cost in bits: 32 bits of
// target per entry (the tagless accounting) plus the stored tag, the
// per-entry LRU state and a valid bit. A pure function of a valid
// configuration, usable without instantiating the cache.
func (c TaggedConfig) CostBits() int {
	tagBits := c.TagBits
	if tagBits == 0 || tagBits > 32 {
		tagBits = 32
	}
	lruBits := log2(c.Ways)
	return c.Entries * (32 + tagBits + lruBits + 1)
}

// Tagged is a tagged target cache (Figure 11): a set-associative cache
// whose payload is the predicted target address. A tag mismatch produces no
// prediction instead of another branch's target, trading capacity for the
// elimination of interference.
//
// A drive calls Predict and then Update with the same pc and history, so
// the cache remembers its last lookup — the key with the set, tag and way
// it found — and Update writes that way, or allocates a victim, without
// scanning the set for the tag again. Any other access and Reset forget
// it, and Update forgets it once it has written, so interleaved keys
// (wrong-path predictions between a jump's Predict and its Update) take
// the full walk. Either way the LRU tick stream is the full walk's.
type Tagged struct {
	cfg     TaggedConfig
	c       *cache.Cache[uint64] // allocated by the first access
	sets    int
	setBits int
	tagMask uint64
	memo    taggedMemo
}

// taggedMemo is a Tagged's last lookup: Predict's (pc, hist), its set and
// tag, and the way that holds the tag (-1 on a miss); ok marks it live.
type taggedMemo struct {
	pc, hist, tag uint64
	set, way      int
	ok            bool
}

// NewTagged returns a tagged target cache. It panics on invalid
// configuration. Its table is allocated by its first access, so a cache
// that is built but never driven costs no table.
func NewTagged(cfg TaggedConfig) *Tagged {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Entries / cfg.Ways
	t := &Tagged{
		cfg:     cfg,
		sets:    sets,
		setBits: log2(sets),
		tagMask: ^uint64(0),
	}
	if cfg.TagBits > 0 && cfg.TagBits < 64 {
		t.tagMask = uint64(1)<<cfg.TagBits - 1
	}
	return t
}

// Config returns the configuration.
func (t *Tagged) Config() TaggedConfig { return t.cfg }

// Slot returns the set index and the stored (truncated) tag of the line
// (pc, hist) selects under the configured scheme: a pure function of the
// configuration, the line Predict looks up and Update writes.
func (t *Tagged) Slot(pc, hist uint64) (int, uint64) {
	word := pc >> 2
	h := hist
	if t.cfg.HistBits < 64 {
		h &= uint64(1)<<t.cfg.HistBits - 1
	}
	setMask := uint64(t.sets - 1)
	var set, tag uint64
	switch t.cfg.Scheme {
	case SchemeAddress:
		set = word & setMask
		tag = (word >> t.setBits) ^ h
	case SchemeHistoryConcat:
		set = h & setMask
		tag = (h >> t.setBits) | word<<uint(max(t.cfg.HistBits-t.setBits, 0))
	default: // SchemeHistoryXor
		x := word ^ h
		set = x & setMask
		tag = x >> t.setBits
	}
	return int(set & setMask), tag & t.tagMask
}

// table returns the cache, allocating it at the first access.
func (t *Tagged) table() *cache.Cache[uint64] {
	if t.c == nil {
		t.c = cache.New[uint64](t.sets, t.cfg.Ways)
	}
	return t.c
}

// Predict implements TargetCache. A tag miss returns ok=false: the fetch
// engine then has no target-cache prediction and falls back to the BTB.
// A repeated Predict of the key just looked up that hit refreshes the
// remembered way without a scan.
func (t *Tagged) Predict(pc, hist uint64) (uint64, bool) {
	c := t.table()
	if m := &t.memo; m.ok && m.way >= 0 && m.pc == pc && m.hist == hist {
		return *c.TouchWay(m.set, m.way), true
	}
	set, tag := t.Slot(pc, hist)
	v, way, ok := c.LookupWay(set, tag)
	// Field by field: a composite literal is built on the stack and
	// copied in wide loads that stall on the narrow stores just made.
	m := &t.memo
	m.pc, m.hist, m.tag, m.set, m.way, m.ok = pc, hist, tag, set, way, true
	if !ok {
		return 0, false
	}
	return *v, true
}

// Update implements TargetCache, allocating (with LRU replacement) on miss.
func (t *Tagged) Update(pc, hist, target uint64) {
	c := t.table()
	var v *uint64
	if m := &t.memo; m.ok && m.pc == pc && m.hist == hist {
		v, _ = c.InsertWay(m.set, m.way, m.tag)
	} else {
		set, tag := t.Slot(pc, hist)
		v, _ = c.Insert(set, tag)
	}
	*v = target
	t.memo.ok = false
}

// CostBits implements TargetCache via the configuration's accounting.
func (t *Tagged) CostBits() int { return t.cfg.CostBits() }

// Reset implements TargetCache.
func (t *Tagged) Reset() {
	if t.c != nil {
		t.c.Reset()
	}
	t.memo.ok = false
}

var _ TargetCache = (*Tagged)(nil)
