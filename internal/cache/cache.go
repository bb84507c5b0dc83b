// Package cache provides a generic set-associative tagged store with
// true-LRU replacement. It is the shared substrate for the BTB, the tagged
// target cache, and the timing model's data cache.
package cache

import "fmt"

type line[V any] struct {
	valid   bool
	tag     uint64
	lastUse uint64
	val     V
}

// Cache is a set-associative array of tagged entries holding payloads of
// type V. Callers own the index/tag split: Lookup and Insert take a set
// index (which must be < Sets()) and a full tag; IndexOf computes the
// canonical split for callers that map a word/line address across all
// sets.
//
// LRU tick semantics: the tick is a logical clock stamped into an entry's
// lastUse whenever that entry is refreshed — a Lookup hit or an Insert. It
// advances exactly once per refreshing operation and not on misses or
// Peeks, so equal tick streams always order evictions identically.
type Cache[V any] struct {
	sets [][]line[V]
	ways int
	tick uint64

	// Power-of-two set counts index with mask/shift instead of the
	// div/mod pair in IndexOf — the geometry every shipped configuration
	// (BTB, tagged target cache, data cache) uses.
	setMask  uint64
	setShift uint
	pow2     bool

	// Statistics.
	hits      int64
	misses    int64
	evictions int64
}

// New returns a cache with numSets sets of ways entries each. It panics if
// either dimension is non-positive; set counts need not be powers of two.
func New[V any](numSets, ways int) *Cache[V] {
	if numSets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry %dx%d", numSets, ways))
	}
	sets := make([][]line[V], numSets)
	backing := make([]line[V], numSets*ways)
	for i := range sets {
		sets[i], backing = backing[:ways:ways], backing[ways:]
	}
	c := &Cache[V]{sets: sets, ways: ways}
	if numSets&(numSets-1) == 0 {
		c.pow2 = true
		c.setMask = uint64(numSets - 1)
		for 1<<c.setShift < numSets {
			c.setShift++
		}
	}
	return c
}

// IndexOf splits a word or line address into the set index (low bits,
// modulo the set count) and the tag (the remaining high bits). Power-of-
// two geometries take the mask/shift fast path; other set counts fall back
// to div/mod with identical results.
func (c *Cache[V]) IndexOf(addr uint64) (set int, tag uint64) {
	if c.pow2 {
		return int(addr & c.setMask), addr >> c.setShift
	}
	n := uint64(len(c.sets))
	return int(addr % n), addr / n
}

// Sets returns the number of sets.
func (c *Cache[V]) Sets() int { return len(c.sets) }

// Ways returns the associativity.
func (c *Cache[V]) Ways() int { return c.ways }

// Entries returns the total entry count (sets × ways).
func (c *Cache[V]) Entries() int { return len(c.sets) * c.ways }

// Lookup searches set for tag. On a hit it refreshes the entry's LRU state
// and returns a pointer to the payload; the pointer is valid until the next
// Insert into the same set. The LRU tick advances only on hits: a miss
// refreshes nothing, so it must not consume a timestamp (relative entry
// ordering is unaffected either way, but the explicit rule keeps the tick
// a pure refresh counter).
func (c *Cache[V]) Lookup(set int, tag uint64) (*V, bool) {
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			c.tick++
			ln.lastUse = c.tick
			c.hits++
			return &ln.val, true
		}
	}
	c.misses++
	return nil, false
}

// LookupWay is Lookup that also reports which way the hit landed in, for
// callers that will refresh the same line via TouchWay without any
// intervening access to the set. The way index is -1 on a miss.
func (c *Cache[V]) LookupWay(set int, tag uint64) (*V, int, bool) {
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			c.tick++
			ln.lastUse = c.tick
			c.hits++
			return &ln.val, i, true
		}
	}
	c.misses++
	return nil, -1, false
}

// TouchWay refreshes a line located by a previous LookupWay hit on the
// same (set, tag) with no intervening accesses to the set: the tick,
// lastUse and stats stream is exactly what Touch produces on a hit, minus
// the rescan.
func (c *Cache[V]) TouchWay(set, way int) *V {
	c.tick++
	ln := &c.sets[set][way]
	ln.lastUse = c.tick
	c.hits++
	return &ln.val
}

// Peek searches set for tag without touching LRU state or statistics.
func (c *Cache[V]) Peek(set int, tag uint64) (*V, bool) {
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			return &ln.val, true
		}
	}
	return nil, false
}

// Insert returns a pointer to the payload for tag in set, allocating an
// entry if absent. Allocation prefers an invalid way and otherwise evicts
// the least-recently-used entry (a fresh zero V is installed on allocation).
// The returned bool reports whether an existing valid entry was evicted.
func (c *Cache[V]) Insert(set int, tag uint64) (*V, bool) {
	way := -1
	for i := range c.sets[set] {
		if ln := &c.sets[set][i]; ln.valid && ln.tag == tag {
			way = i
			break
		}
	}
	return c.InsertWay(set, way, tag)
}

// InsertWay is Insert for a caller that already knows where tag sits in
// set, from a LookupWay of the same (set, tag) with no access to the set
// since: way is the line holding tag, or -1 when the set does not hold
// it. It skips Insert's scan for the tag, with the same tick, LRU and
// statistics stream.
func (c *Cache[V]) InsertWay(set, way int, tag uint64) (*V, bool) {
	c.tick++
	if way >= 0 {
		ln := &c.sets[set][way]
		ln.lastUse = c.tick
		return &ln.val, false
	}
	var victim *line[V]
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if !ln.valid {
			victim = ln
			break
		}
		if victim == nil || ln.lastUse < victim.lastUse {
			victim = ln
		}
	}
	evicted := victim.valid
	if evicted {
		c.evictions++
	}
	var zero V
	victim.valid = true
	victim.tag = tag
	victim.lastUse = c.tick
	victim.val = zero
	return &victim.val, evicted
}

// Touch finds or allocates the entry for tag in set with a single scan,
// reporting the way that holds it and whether the entry already existed
// there. A found entry is refreshed exactly like a Lookup hit (tick
// advance, hit count); an absent one is allocated exactly like an Insert
// that followed a Peek miss (tick advance, no miss count, eviction
// accounting). It is the one-pass equivalent of the Peek /
// Lookup-or-Insert pattern update paths use, with identical tick and
// statistics streams.
func (c *Cache[V]) Touch(set int, tag uint64) (*V, int, bool) {
	c.tick++
	var victim *line[V]
	way := -1
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.lastUse = c.tick
			c.hits++
			return &ln.val, i, true
		}
		if !ln.valid {
			if victim == nil || victim.valid {
				victim, way = ln, i
			}
			continue
		}
		if victim == nil || (victim.valid && ln.lastUse < victim.lastUse) {
			victim, way = ln, i
		}
	}
	if victim.valid {
		c.evictions++
	}
	var zero V
	victim.valid = true
	victim.tag = tag
	victim.lastUse = c.tick
	victim.val = zero
	return &victim.val, way, false
}

// Invalidate removes tag from set, reporting whether it was present.
func (c *Cache[V]) Invalidate(set int, tag uint64) bool {
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.valid = false
			return true
		}
	}
	return false
}

// Reset invalidates every entry and clears statistics.
func (c *Cache[V]) Reset() {
	for s := range c.sets {
		for i := range c.sets[s] {
			c.sets[s][i] = line[V]{}
		}
	}
	c.tick, c.hits, c.misses, c.evictions = 0, 0, 0, 0
}

// Stats returns lookup hits, lookup misses and eviction counts.
func (c *Cache[V]) Stats() (hits, misses, evictions int64) {
	return c.hits, c.misses, c.evictions
}
