package core

import (
	"fmt"
	"math/rand"
)

// ITTAGE is a scaled-down ITTAGE-style indirect target predictor (Seznec,
// "A 64-Kbytes ITTAGE indirect branch predictor", CBP-2 2011), included as
// a beyond-the-paper comparator: the target cache's modern descendant.
// A base last-target table backs several tagged tables indexed with
// geometrically increasing history lengths; the longest-history hit
// provides the prediction, with confidence counters arbitrating against
// the alternate prediction and useful counters guarding allocation.
//
// The history supplied through the TargetCache interface is a single
// uint64, so geometric lengths are capped at 64 bits — far shorter than a
// production ITTAGE, but enough to dominate a fixed-length target cache on
// workloads with long-range correlation.
//
// A drive calls Predict and then Update with the same pc and history, so
// the predictor remembers its last lookup, which Update reuses instead of
// walking the tables again. A lookup changes nothing, so a lookup of
// another key only replaces it; Update, which trains the tables, and
// Reset forget it.
type ITTAGE struct {
	cfg    ITTAGEConfig
	base   []uint64 // last-target table, pc-indexed
	tables []ittageTable
	rng    *rand.Rand
	memo   ittageMemo
}

// ittageLookup is one lookup's outcome: the provider (the longest
// hitting table, -1 for none) and its entry, and the alternate
// prediction.
type ittageLookup struct {
	provider int
	e        *ittageEntry
	alt      uint64
	altOK    bool
}

// ittageMemo is an ITTAGE's last lookup, of (pc, hist); ok marks it live.
type ittageMemo struct {
	pc, hist uint64
	look     ittageLookup
	ok       bool
}

type ittageTable struct {
	histLen int
	mask    uint64
	entries []ittageEntry
}

type ittageEntry struct {
	valid  bool
	tag    uint32
	target uint64
	conf   uint8 // 0..3 confidence
	useful uint8 // 0..3 usefulness
}

// ITTAGEConfig describes the predictor.
type ITTAGEConfig struct {
	// BaseEntries is the size of the last-target base table (power of 2).
	BaseEntries int
	// TableEntries is the size of each tagged table (power of 2).
	TableEntries int
	// HistLens are the per-table history lengths, shortest first; values
	// are capped at 64.
	HistLens []int
	// TagBits is the stored tag width.
	TagBits int
}

// DefaultITTAGEConfig returns a small five-table predictor with geometric
// history lengths, sized near the paper's target-cache budget.
func DefaultITTAGEConfig() ITTAGEConfig {
	return ITTAGEConfig{
		BaseEntries:  256,
		TableEntries: 128,
		HistLens:     []int{4, 8, 16, 32, 64},
		TagBits:      9,
	}
}

// Validate checks the configuration.
func (c ITTAGEConfig) Validate() error {
	for _, n := range []int{c.BaseEntries, c.TableEntries} {
		if n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("core: ITTAGE table size %d not a power of two", n)
		}
	}
	if len(c.HistLens) == 0 {
		return fmt.Errorf("core: ITTAGE needs at least one tagged table")
	}
	prev := 0
	for _, l := range c.HistLens {
		if l <= prev || l > 64 {
			return fmt.Errorf("core: ITTAGE history lengths must be increasing and <= 64")
		}
		prev = l
	}
	if c.TagBits < 4 || c.TagBits > 32 {
		return fmt.Errorf("core: invalid ITTAGE tag width %d", c.TagBits)
	}
	return nil
}

// NewITTAGE builds the predictor. It panics on invalid configuration.
func NewITTAGE(cfg ITTAGEConfig) *ITTAGE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &ITTAGE{
		cfg:  cfg,
		base: make([]uint64, cfg.BaseEntries),
		rng:  rand.New(rand.NewSource(0x17a6e)), // fixed: deterministic
	}
	for _, l := range cfg.HistLens {
		mask := ^uint64(0)
		if l < 64 {
			mask = uint64(1)<<l - 1
		}
		p.tables = append(p.tables, ittageTable{
			histLen: l,
			mask:    mask,
			entries: make([]ittageEntry, cfg.TableEntries),
		})
	}
	return p
}

// mix hashes pc and masked history into an index and a tag for table ti.
func (p *ITTAGE) mix(ti int, pc, hist uint64) (int, uint32) {
	h := hist & p.tables[ti].mask
	x := (pc >> 2) * 0x9e3779b97f4a7c15
	x ^= h * 0xbf58476d1ce4e5b9
	x ^= uint64(ti+1) * 0x94d049bb133111eb
	x ^= x >> 29
	idx := int(x) & (p.cfg.TableEntries - 1)
	tag := uint32(x>>13) & (uint32(1)<<p.cfg.TagBits - 1)
	return idx, tag
}

func (p *ITTAGE) baseIndex(pc uint64) int {
	return int(pc>>2) & (p.cfg.BaseEntries - 1)
}

// lookup returns the provider (longest hitting table) and alternate
// predictions for (pc, hist), from the memo when it holds that key.
func (p *ITTAGE) lookup(pc, hist uint64) ittageLookup {
	if m := &p.memo; m.ok && m.pc == pc && m.hist == hist {
		return m.look
	}
	l := ittageLookup{provider: -1}
	for ti := len(p.tables) - 1; ti >= 0; ti-- {
		idx, tag := p.mix(ti, pc, hist)
		e := &p.tables[ti].entries[idx]
		if e.valid && e.tag == tag {
			if l.provider < 0 {
				l.provider, l.e = ti, e
				continue
			}
			l.alt, l.altOK = e.target, true
			break
		}
	}
	if !l.altOK {
		if b := p.base[p.baseIndex(pc)]; b != 0 {
			l.alt, l.altOK = b, true
		}
	}
	m := &p.memo // field by field, as in Tagged.Predict
	m.pc, m.hist, m.look, m.ok = pc, hist, l, true
	return l
}

// predict is the final prediction of lookup l.
func (l ittageLookup) predict() (uint64, bool) {
	if l.provider >= 0 {
		// A freshly allocated entry (confidence 0) is less trustworthy
		// than the alternate prediction.
		if l.e.conf == 0 && l.altOK {
			return l.alt, true
		}
		return l.e.target, true
	}
	return l.alt, l.altOK
}

// Predict implements TargetCache.
func (p *ITTAGE) Predict(pc, hist uint64) (uint64, bool) {
	return p.lookup(pc, hist).predict()
}

// Update implements TargetCache.
func (p *ITTAGE) Update(pc, hist, target uint64) {
	// Judge the (pre-update) final prediction first.
	l := p.lookup(pc, hist)
	p.memo.ok = false
	predicted, ok := l.predict()
	mispredicted := !ok || predicted != target

	if e := l.e; l.provider >= 0 {
		if e.target == target {
			if e.conf < 3 {
				e.conf++
			}
			// Useful only when the provider beat the alternate.
			if (!l.altOK || l.alt != target) && e.useful < 3 {
				e.useful++
			}
		} else if e.conf > 0 {
			e.conf--
		} else {
			e.target = target
		}
	}

	// Allocate into a longer-history table on a misprediction.
	if mispredicted && l.provider < len(p.tables)-1 {
		p.allocate(l.provider+1, pc, hist, target)
	}

	p.base[p.baseIndex(pc)] = target
}

// allocate installs target in one not-useful entry of a table with history
// length index >= from; failing that, it decays usefulness so future
// allocations succeed.
func (p *ITTAGE) allocate(from int, pc, hist, target uint64) {
	// Randomise the starting table to avoid ping-ponging on one table.
	start := from
	if n := len(p.tables) - from; n > 1 && p.rng.Intn(2) == 1 {
		start = from + 1 + p.rng.Intn(n-1)
	}
	for ti := start; ti < len(p.tables); ti++ {
		idx, tag := p.mix(ti, pc, hist)
		e := &p.tables[ti].entries[idx]
		if !e.valid || e.useful == 0 {
			*e = ittageEntry{valid: true, tag: tag, target: target, conf: 0}
			return
		}
	}
	for ti := from; ti < len(p.tables); ti++ {
		idx, _ := p.mix(ti, pc, hist)
		e := &p.tables[ti].entries[idx]
		if e.useful > 0 {
			e.useful--
		}
	}
}

// CostBits returns the configuration's storage cost in bits: a 32-bit
// last-target base table, and per tagged entry a 32-bit target plus
// tag + 2-bit confidence + 2-bit usefulness + valid.
func (c ITTAGEConfig) CostBits() int {
	per := 32 + c.TagBits + 2 + 2 + 1
	return c.BaseEntries*32 + len(c.HistLens)*c.TableEntries*per
}

// CostBits implements TargetCache via the configuration's accounting.
func (p *ITTAGE) CostBits() int { return p.cfg.CostBits() }

// Reset implements TargetCache.
func (p *ITTAGE) Reset() {
	for i := range p.base {
		p.base[i] = 0
	}
	for ti := range p.tables {
		for i := range p.tables[ti].entries {
			p.tables[ti].entries[i] = ittageEntry{}
		}
	}
	p.rng = rand.New(rand.NewSource(0x17a6e))
	p.memo.ok = false
}

var _ TargetCache = (*ITTAGE)(nil)
