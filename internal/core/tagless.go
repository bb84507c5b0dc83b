package core

import "fmt"

// TaglessScheme selects how branch address and history are hashed into a
// tagless target cache (Section 4.2.1).
type TaglessScheme uint8

const (
	// SchemeGAg indexes with history bits alone; GAg(9) uses 9 bits of
	// pattern history to select among 512 entries.
	SchemeGAg TaglessScheme = iota
	// SchemeGAs conceptually partitions the table: address bits select the
	// table, history bits select the entry within it.
	SchemeGAs
	// SchemeGshare XORs the branch address with the history to form the
	// index, utilising the table entries more effectively.
	SchemeGshare
)

// String names the scheme.
func (s TaglessScheme) String() string {
	switch s {
	case SchemeGAg:
		return "GAg"
	case SchemeGAs:
		return "GAs"
	case SchemeGshare:
		return "gshare"
	default:
		return fmt.Sprintf("TaglessScheme(%d)", uint8(s))
	}
}

// TaglessConfig describes a tagless target cache.
type TaglessConfig struct {
	// Entries is the table size; must be a power of two. The paper's
	// tagless caches have 512 entries.
	Entries int
	Scheme  TaglessScheme
	// HistBits and AddrBits apply to SchemeGAs and must sum to
	// log2(Entries): GAs(8,1) uses 8 history bits and 1 address bit,
	// GAs(7,2) uses 7 and 2. For GAg and gshare all index bits come from
	// history (XORed with the address for gshare) and these fields are
	// ignored.
	HistBits int
	AddrBits int
}

// Name returns the paper's notation for the configuration, e.g. "GAg(9)",
// "GAs(7,2)", "gshare".
func (c TaglessConfig) Name() string {
	switch c.Scheme {
	case SchemeGAg:
		return fmt.Sprintf("GAg(%d)", log2(c.Entries))
	case SchemeGAs:
		return fmt.Sprintf("GAs(%d,%d)", c.HistBits, c.AddrBits)
	default:
		return "gshare"
	}
}

// Validate checks the configuration.
func (c TaglessConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("core: tagless entries %d not a power of two", c.Entries)
	}
	if c.Scheme == SchemeGAs {
		if c.HistBits < 0 || c.AddrBits < 0 || c.HistBits+c.AddrBits != log2(c.Entries) {
			return fmt.Errorf("core: GAs(%d,%d) does not index %d entries",
				c.HistBits, c.AddrBits, c.Entries)
		}
	}
	return nil
}

// CostBits returns the configuration's storage cost in bits under the
// paper's accounting of 32 bits per entry ("target cache(n) = 32 x n
// bits"); it is a pure function of the configuration so design-space
// sweeps can price a geometry without instantiating it.
func (c TaglessConfig) CostBits() int { return 32 * c.Entries }

// Tagless is a tagless target cache (Figure 10): a flat table of target
// addresses selected by a hash of fetch address and branch history.
// Interference between branches that alias to the same entry is possible
// and is the motivation for the tagged variant.
type Tagless struct {
	cfg   TaglessConfig
	table []uint64 // allocated by the first Update; nil reads as all zero
	mask  uint64
}

// NewTagless returns a tagless target cache. It panics on invalid
// configuration. Its table is allocated by its first Update, so a cache
// that is built but never trained costs no table.
func NewTagless(cfg TaglessConfig) *Tagless {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Tagless{cfg: cfg, mask: uint64(cfg.Entries - 1)}
}

// Config returns the configuration.
func (t *Tagless) Config() TaglessConfig { return t.cfg }

// Slot returns the table entry (pc, hist) selects under the configured
// scheme: a pure function of the configuration, the entry Predict reads
// and Update writes.
func (t *Tagless) Slot(pc, hist uint64) uint64 {
	word := pc >> 2
	switch t.cfg.Scheme {
	case SchemeGAg:
		return hist & t.mask
	case SchemeGAs:
		addr := word & (uint64(1)<<t.cfg.AddrBits - 1)
		h := hist & (uint64(1)<<t.cfg.HistBits - 1)
		return (addr<<t.cfg.HistBits | h) & t.mask
	default: // gshare
		return (hist ^ word) & t.mask
	}
}

// Predict implements TargetCache. A zero entry (never written) yields
// ok=false; any other value is returned as the prediction. Aliased entries
// written by other branches are returned too — that interference is
// inherent to the tagless structure.
func (t *Tagless) Predict(pc, hist uint64) (uint64, bool) {
	if i := t.Slot(pc, hist); i < uint64(len(t.table)) {
		tgt := t.table[i]
		return tgt, tgt != 0
	}
	return 0, false
}

// Update implements TargetCache.
func (t *Tagless) Update(pc, hist, target uint64) {
	if t.table == nil {
		t.table = make([]uint64, t.cfg.Entries)
	}
	t.table[t.Slot(pc, hist)] = target
}

// CostBits implements TargetCache via the configuration's accounting.
func (t *Tagless) CostBits() int { return t.cfg.CostBits() }

// Reset implements TargetCache.
func (t *Tagless) Reset() { clear(t.table) }

var _ TargetCache = (*Tagless)(nil)
