package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
)

// The reference target caches below are the tagless, tagged, cascaded and
// ITTAGE code as it was before the caches remembered their last lookup
// and allocated their tables lazily: every Predict and Update walks its
// table in full. TestMemoMatchesFullWalk drives each cache and its
// reference with the same random stream.

type refTagless struct {
	t     *Tagless // for its pure Slot
	table []uint64
}

func newRefTagless(cfg TaglessConfig) *refTagless {
	return &refTagless{t: NewTagless(cfg), table: make([]uint64, cfg.Entries)}
}

func (r *refTagless) Predict(pc, hist uint64) (uint64, bool) {
	tgt := r.table[r.t.Slot(pc, hist)]
	return tgt, tgt != 0
}
func (r *refTagless) Update(pc, hist, target uint64) { r.table[r.t.Slot(pc, hist)] = target }
func (r *refTagless) Reset()                         { clear(r.table) }

type refTagged struct {
	t *Tagged // for its pure Slot
	c *cache.Cache[uint64]
}

func newRefTagged(cfg TaggedConfig) *refTagged {
	t := NewTagged(cfg)
	return &refTagged{t: t, c: cache.New[uint64](t.sets, cfg.Ways)}
}

func (r *refTagged) Predict(pc, hist uint64) (uint64, bool) {
	set, tag := r.t.Slot(pc, hist)
	v, ok := r.c.Lookup(set, tag)
	if !ok {
		return 0, false
	}
	return *v, true
}

func (r *refTagged) Update(pc, hist, target uint64) {
	set, tag := r.t.Slot(pc, hist)
	v, _ := r.c.Insert(set, tag)
	*v = target
}

func (r *refTagged) Reset() { r.c.Reset() }

type refCascaded struct {
	cfg    CascadedConfig
	stage1 *cache.Cache[uint64]
	stage2 *refTagged
	c      *Cascaded // for its pure stage1Index
}

func newRefCascaded(cfg CascadedConfig) *refCascaded {
	return &refCascaded{
		cfg:    cfg,
		stage1: cache.New[uint64](cfg.Stage1Entries/cfg.Stage1Ways, cfg.Stage1Ways),
		stage2: newRefTagged(cfg.Stage2),
		c:      NewCascaded(cfg),
	}
}

func (r *refCascaded) Predict(pc, hist uint64) (uint64, bool) {
	if tgt, ok := r.stage2.Predict(pc, hist); ok {
		return tgt, true
	}
	set, tag := r.c.stage1Index(pc)
	if v, ok := r.stage1.Lookup(set, tag); ok {
		return *v, true
	}
	return 0, false
}

func (r *refCascaded) Update(pc, hist, target uint64) {
	set, tag := r.c.stage1Index(pc)
	stage1Correct := false
	if v, ok := r.stage1.Lookup(set, tag); ok {
		stage1Correct = *v == target
	}
	if _, hit := r.stage2.Predict(pc, hist); hit || !r.cfg.Filtered || !stage1Correct {
		r.stage2.Update(pc, hist, target)
	}
	v, _ := r.stage1.Insert(set, tag)
	*v = target
}

func (r *refCascaded) Reset() {
	r.stage1.Reset()
	r.stage2.Reset()
}

type refITTAGE struct {
	p *ITTAGE // its tables, base and rng; never driven through its methods
}

func (r *refITTAGE) lookup(pc, hist uint64) (provider int, providerEntry *ittageEntry, alt uint64, altOK bool) {
	p := r.p
	provider = -1
	for ti := len(p.tables) - 1; ti >= 0; ti-- {
		idx, tag := p.mix(ti, pc, hist)
		e := &p.tables[ti].entries[idx]
		if e.valid && e.tag == tag {
			if provider < 0 {
				provider = ti
				providerEntry = e
				continue
			}
			alt, altOK = e.target, true
			return
		}
	}
	if b := p.base[p.baseIndex(pc)]; b != 0 {
		alt, altOK = b, true
	}
	return
}

func (r *refITTAGE) Predict(pc, hist uint64) (uint64, bool) {
	provider, e, alt, altOK := r.lookup(pc, hist)
	if provider >= 0 {
		if e.conf == 0 && altOK {
			return alt, true
		}
		return e.target, true
	}
	if altOK {
		return alt, true
	}
	return 0, false
}

func (r *refITTAGE) Update(pc, hist, target uint64) {
	p := r.p
	predicted, ok := r.Predict(pc, hist)
	mispredicted := !ok || predicted != target
	provider, e, alt, altOK := r.lookup(pc, hist)
	if provider >= 0 {
		if e.target == target {
			if e.conf < 3 {
				e.conf++
			}
			if (!altOK || alt != target) && e.useful < 3 {
				e.useful++
			}
		} else if e.conf > 0 {
			e.conf--
		} else {
			e.target = target
		}
	}
	if mispredicted && provider < len(p.tables)-1 {
		p.allocate(provider+1, pc, hist, target)
	}
	p.base[p.baseIndex(pc)] = target
}

func (r *refITTAGE) Reset() {
	r.p.Reset()
}

// taggedState is a tagged cache's table as its reference would hold it:
// a cache never accessed has no table, which reads as a fresh one.
func taggedState(t *Tagged) *cache.Cache[uint64] {
	if t.c == nil {
		return cache.New[uint64](t.sets, t.cfg.Ways)
	}
	return t.c
}

// sameState reports whether a cache and its reference hold the same
// table: entries, LRU state and statistics, and ITTAGE's random stream.
func sameState(got TargetCache, ref targetCacheRef) bool {
	switch got := got.(type) {
	case *Tagless:
		r := ref.(*refTagless)
		if got.table == nil {
			return reflect.DeepEqual(r.table, make([]uint64, len(r.table)))
		}
		return reflect.DeepEqual(got.table, r.table)
	case *Tagged:
		return reflect.DeepEqual(taggedState(got), ref.(*refTagged).c)
	case *Cascaded:
		r := ref.(*refCascaded)
		return reflect.DeepEqual(got.stage1, r.stage1) && reflect.DeepEqual(taggedState(got.stage2), r.stage2.c)
	case *ITTAGE:
		r := ref.(*refITTAGE).p
		return reflect.DeepEqual(got.base, r.base) && reflect.DeepEqual(got.tables, r.tables) &&
			got.rng.Int63() == r.rng.Int63()
	}
	panic(fmt.Sprintf("no reference for %T", got))
}

type targetCacheRef interface {
	Predict(pc, hist uint64) (uint64, bool)
	Update(pc, hist, target uint64)
	Reset()
}

// TestMemoMatchesFullWalk drives each target cache that remembers its
// last lookup, and the full-walk reference, with random streams over a
// few keys, tiny tables and narrow tags, so that keys share sets, lines
// and entries. Besides the drive a simulator makes (Predict, then Update
// of the same key), a stream repeats a Predict, predicts or updates only,
// interleaves another key's access between a Predict and its Update, and
// resets. Every prediction and the final state must agree.
func TestMemoMatchesFullWalk(t *testing.T) {
	type pair struct {
		got TargetCache
		ref targetCacheRef
	}
	cases := map[string]func() pair{
		"tagless-gshare": func() pair {
			cfg := TaglessConfig{Entries: 16, Scheme: SchemeGshare}
			return pair{NewTagless(cfg), newRefTagless(cfg)}
		},
		"tagged-xor-2way": func() pair {
			cfg := TaggedConfig{Entries: 8, Ways: 2, Scheme: SchemeHistoryXor, HistBits: 5, TagBits: 3}
			return pair{NewTagged(cfg), newRefTagged(cfg)}
		},
		"tagged-addr-4way": func() pair {
			cfg := TaggedConfig{Entries: 16, Ways: 4, Scheme: SchemeAddress, HistBits: 4}
			return pair{NewTagged(cfg), newRefTagged(cfg)}
		},
		"tagged-concat-1way": func() pair {
			cfg := TaggedConfig{Entries: 4, Ways: 1, Scheme: SchemeHistoryConcat, HistBits: 6, TagBits: 2}
			return pair{NewTagged(cfg), newRefTagged(cfg)}
		},
		"cascaded-filtered": func() pair {
			cfg := CascadedConfig{Stage1Entries: 4, Stage1Ways: 2, Filtered: true,
				Stage2: TaggedConfig{Entries: 8, Ways: 2, Scheme: SchemeHistoryXor, HistBits: 5, TagBits: 3}}
			return pair{NewCascaded(cfg), newRefCascaded(cfg)}
		},
		"cascaded-unfiltered": func() pair {
			cfg := CascadedConfig{Stage1Entries: 4, Stage1Ways: 1,
				Stage2: TaggedConfig{Entries: 4, Ways: 4, Scheme: SchemeHistoryXor, HistBits: 4}}
			return pair{NewCascaded(cfg), newRefCascaded(cfg)}
		},
		"ittage": func() pair {
			cfg := ITTAGEConfig{BaseEntries: 8, TableEntries: 8, HistLens: []int{2, 4, 8}, TagBits: 4}
			return pair{NewITTAGE(cfg), &refITTAGE{NewITTAGE(cfg)}}
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := mk()
				type key struct{ pc, hist uint64 }
				keys := make([]key, 3+rng.Intn(10))
				for i := range keys {
					keys[i] = key{uint64(rng.Intn(8)) << 2, uint64(rng.Intn(64))}
				}
				targets := []uint64{0x100, 0x200, 0x300, 0x400}
				pick := func() key { return keys[rng.Intn(len(keys))] }
				var trail []string
				predict := func(k key) {
					trail = append(trail, fmt.Sprintf("P%v", k))
					g1, g2 := p.got.Predict(k.pc, k.hist)
					r1, r2 := p.ref.Predict(k.pc, k.hist)
					if g1 != r1 || g2 != r2 {
						t.Fatalf("seed %d: predict (%#x, %#x) = %#x, %v; full walk %#x, %v\nops %v", seed, k.pc, k.hist, g1, g2, r1, r2, trail)
					}
				}
				update := func(k key) {
					trail = append(trail, fmt.Sprintf("U%v", k))
					tgt := targets[rng.Intn(len(targets))]
					p.got.Update(k.pc, k.hist, tgt)
					p.ref.Update(k.pc, k.hist, tgt)
				}
				for op := 0; op < 400; op++ {
					k := pick()
					switch n := rng.Intn(20); {
					case n < 9: // the simulator's drive
						predict(k)
						update(k)
					case n < 11:
						predict(k)
						predict(k)
						update(k)
					case n < 13: // another key between a Predict and its Update
						predict(k)
						if rng.Intn(2) == 0 {
							predict(pick())
						} else {
							update(pick())
						}
						update(k)
					case n < 16:
						predict(k)
					case n < 19:
						update(k)
					default:
						trail = append(trail, "R")
						p.got.Reset()
						p.ref.Reset()
					}
				}
				if !sameState(p.got, p.ref) {
					t.Fatalf("seed %d: final state differs from the full walk's\nops %v", seed, trail)
				}
			}
		})
	}
}

// TestCascadedMemoForgetsReset pins that a reset forgets the first
// stage's remembered hit: a Predict that hit stage 1 (under a history
// stage 2 misses), a Reset, then the Update of the same pc must allocate
// afresh, as the full walk does.
func TestCascadedMemoForgetsReset(t *testing.T) {
	cfg := DefaultCascadedConfig()
	got, ref := NewCascaded(cfg), newRefCascaded(cfg)
	for _, p := range []targetCacheRef{got, ref} {
		p.Update(0x40, 1, 0x100)
		if tgt, ok := p.Predict(0x40, 2); !ok || tgt != 0x100 {
			t.Fatalf("%T: predict = %#x, %v; want the first stage's 0x100", p, tgt, ok)
		}
		p.Reset()
		p.Update(0x40, 2, 0x200)
	}
	if !sameState(got, ref) {
		t.Fatal("state after a reset between Predict and Update differs from the full walk's")
	}
}
