package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBasicInsertLookup(t *testing.T) {
	c := New[int](4, 2)
	if c.Sets() != 4 || c.Ways() != 2 || c.Entries() != 8 {
		t.Fatalf("geometry wrong: %d sets %d ways", c.Sets(), c.Ways())
	}
	if _, ok := c.Lookup(0, 1); ok {
		t.Fatal("lookup hit in empty cache")
	}
	v, evicted := c.Insert(0, 1)
	if evicted {
		t.Fatal("insert into empty set evicted")
	}
	*v = 42
	got, ok := c.Lookup(0, 1)
	if !ok || *got != 42 {
		t.Fatalf("lookup after insert: ok=%v v=%v", ok, got)
	}
	// Re-insert keeps the payload.
	v2, evicted := c.Insert(0, 1)
	if evicted || *v2 != 42 {
		t.Fatalf("re-insert: evicted=%v v=%d", evicted, *v2)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](1, 2)
	*must(c.Insert(0, 10)) = 10
	*must(c.Insert(0, 20)) = 20
	c.Lookup(0, 10) // make 10 most recently used
	_, evicted := c.Insert(0, 30)
	if !evicted {
		t.Fatal("full set insert did not evict")
	}
	if _, ok := c.Peek(0, 20); ok {
		t.Fatal("LRU entry 20 survived eviction")
	}
	if _, ok := c.Peek(0, 10); !ok {
		t.Fatal("MRU entry 10 was evicted")
	}
}

func must[V any](v *V, _ bool) *V { return v }

func TestInvalidate(t *testing.T) {
	c := New[int](2, 2)
	c.Insert(1, 7)
	if !c.Invalidate(1, 7) {
		t.Fatal("invalidate missed present entry")
	}
	if c.Invalidate(1, 7) {
		t.Fatal("invalidate hit absent entry")
	}
	if _, ok := c.Lookup(1, 7); ok {
		t.Fatal("invalidated entry still present")
	}
}

func TestReset(t *testing.T) {
	c := New[int](2, 2)
	c.Insert(0, 1)
	c.Lookup(0, 1)
	c.Lookup(0, 9)
	c.Reset()
	if _, ok := c.Peek(0, 1); ok {
		t.Fatal("entry survived reset")
	}
	h, m, e := c.Stats()
	if h != 0 || m != 0 || e != 0 {
		t.Fatalf("stats survived reset: %d/%d/%d", h, m, e)
	}
}

func TestStatsCounting(t *testing.T) {
	c := New[int](1, 1)
	c.Lookup(0, 1) // miss
	c.Insert(0, 1)
	c.Lookup(0, 1) // hit
	c.Insert(0, 2) // evict
	h, m, e := c.Stats()
	if h != 1 || m != 1 || e != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", h, m, e)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 1) did not panic")
		}
	}()
	New[int](0, 1)
}

// TestTickSemantics pins the documented LRU clock rule: the tick advances
// exactly once per refreshing operation (Lookup hit, Insert, Touch,
// LookupWay hit, TouchWay) and never on misses or Peeks.
func TestTickSemantics(t *testing.T) {
	c := New[int](2, 2)
	at := func(want uint64, step string) {
		t.Helper()
		if c.tick != want {
			t.Fatalf("after %s: tick = %d, want %d", step, c.tick, want)
		}
	}
	c.Lookup(0, 1) // miss
	at(0, "lookup miss")
	c.Peek(0, 1)
	at(0, "peek")
	c.Insert(0, 1)
	at(1, "insert")
	c.Lookup(0, 1) // hit
	at(2, "lookup hit")
	c.LookupWay(0, 9) // miss
	at(2, "lookupway miss")
	_, way, _ := c.LookupWay(0, 1) // hit
	at(3, "lookupway hit")
	c.TouchWay(0, way)
	at(4, "touchway")
	c.Touch(0, 1) // found
	at(5, "touch found")
	c.Touch(0, 2) // allocated
	at(6, "touch allocate")
	c.Invalidate(0, 2)
	at(6, "invalidate")
}

// TestEvictionOrder pins the victim-selection rule: the first invalid way
// wins; with every way valid, the minimum lastUse wins, first way on ties.
func TestEvictionOrder(t *testing.T) {
	c := New[int](1, 4)
	// Fill ways 0..3 in order; each Insert stamps a fresher tick, so way 0
	// is LRU.
	for tag := uint64(10); tag < 14; tag++ {
		c.Insert(0, tag)
	}
	// Refresh way 0 (tag 10): way 1 (tag 11) becomes LRU.
	c.Lookup(0, 10)
	c.Insert(0, 99)
	if _, ok := c.Peek(0, 11); ok {
		t.Fatal("LRU entry 11 survived eviction")
	}
	for _, tag := range []uint64{10, 12, 13, 99} {
		if _, ok := c.Peek(0, tag); !ok {
			t.Fatalf("entry %d unexpectedly evicted", tag)
		}
	}
	// Invalidate way 2 (tag 12): the invalid way must be preferred over
	// the LRU valid entry.
	c.Invalidate(0, 12)
	_, _, evBefore := c.Stats()
	if _, evicted := c.Insert(0, 77); evicted {
		t.Fatal("insert with an invalid way evicted a valid entry")
	}
	if _, _, ev := c.Stats(); ev != evBefore {
		t.Fatalf("evictions = %d, want %d (filling an invalid way is not an eviction)", ev, evBefore)
	}
}

// TestIndexOf checks the power-of-two mask/shift fast path against the
// div/mod reference for both geometries.
func TestIndexOf(t *testing.T) {
	pow2 := New[int](8, 2)
	odd := New[int](6, 2)
	for _, addr := range []uint64{0, 1, 5, 8, 63, 64, 1 << 40, 0xdeadbeef} {
		if s, tag := pow2.IndexOf(addr); s != int(addr%8) || tag != addr/8 {
			t.Fatalf("pow2 IndexOf(%#x) = (%d,%#x), want (%d,%#x)", addr, s, tag, addr%8, addr/8)
		}
		if s, tag := odd.IndexOf(addr); s != int(addr%6) || tag != addr/6 {
			t.Fatalf("odd IndexOf(%#x) = (%d,%#x), want (%d,%#x)", addr, s, tag, addr%6, addr/6)
		}
	}
}

// TestLookupWayMatchesLookup drives LookupWay/TouchWay/InsertWay and
// plain Lookup/Insert caches with the same stream and requires identical
// hits, stats, eviction behaviour and lines — the equivalence the BTB's
// probe path and the tagged target cache's lookup memo rely on.
func TestLookupWayMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := New[int](4, 2)
	b := New[int](4, 2)
	for op := 0; op < 10000; op++ {
		set := rng.Intn(4)
		tag := uint64(rng.Intn(6))
		switch rng.Intn(4) {
		case 0: // lookup, refreshing via TouchWay on the a-side when it hits
			_, way, hitA := a.LookupWay(set, tag)
			_, hitB := b.Lookup(set, tag)
			if hitA != hitB {
				t.Fatalf("op %d: LookupWay hit=%v, Lookup hit=%v", op, hitA, hitB)
			}
			if hitA {
				// Model the probe/update-hit pattern: refresh the same line
				// again on both sides.
				a.TouchWay(set, way)
				b.Touch(set, tag)
			}
		case 1:
			a.Insert(set, tag)
			b.Insert(set, tag)
		case 2:
			a.Touch(set, tag)
			b.Touch(set, tag)
		case 3: // lookup, then insert the same tag where the lookup found it
			_, way, _ := a.LookupWay(set, tag)
			b.Lookup(set, tag)
			va, evA := a.InsertWay(set, way, tag)
			vb, evB := b.Insert(set, tag)
			if evA != evB || *va != *vb {
				t.Fatalf("op %d: InsertWay evicted=%v payload %d, Insert evicted=%v payload %d", op, evA, *va, evB, *vb)
			}
			*va, *vb = op, op
		}
	}
	ha, ma, ea := a.Stats()
	hb, mb, eb := b.Stats()
	if ha != hb || ma != mb || ea != eb {
		t.Fatalf("stats diverge: way-based %d/%d/%d, plain %d/%d/%d", ha, ma, ea, hb, mb, eb)
	}
	if a.tick != b.tick {
		t.Fatalf("tick diverges: way-based %d, plain %d", a.tick, b.tick)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("lines diverge between the way-based and the plain cache")
	}
}

// TestTouchMatchesPeekLookupInsert drives Touch and the two-pass
// Peek/Lookup-or-Insert pattern it replaced with the same stream,
// requiring identical payload contents, stats and ticks.
func TestTouchMatchesPeekLookupInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := New[int](2, 4)
	b := New[int](2, 4)
	for op := 0; op < 10000; op++ {
		set := rng.Intn(2)
		tag := uint64(rng.Intn(10))
		va, existedA := a.Touch(set, tag)
		var vb *int
		existedB := false
		if _, ok := b.Peek(set, tag); ok {
			vb, existedB = must(b.Lookup(set, tag)), true
		} else {
			vb, _ = b.Insert(set, tag)
		}
		if existedA != existedB {
			t.Fatalf("op %d: Touch existed=%v, reference existed=%v", op, existedA, existedB)
		}
		if *va != *vb {
			t.Fatalf("op %d: payloads diverge: %d vs %d", op, *va, *vb)
		}
		*va = op
		*vb = op
	}
	ha, ma, ea := a.Stats()
	hb, mb, eb := b.Stats()
	if ha != hb || ea != eb || ma != mb {
		t.Fatalf("stats diverge: touch %d/%d/%d, reference %d/%d/%d", ha, ma, ea, hb, mb, eb)
	}
	if a.tick != b.tick {
		t.Fatalf("tick diverges: touch %d, reference %d", a.tick, b.tick)
	}
}

// referenceSet is a naive model of one set used to cross-check LRU
// behaviour under random operations.
type referenceSet struct {
	order []uint64 // most recent last
	ways  int
}

func (r *referenceSet) touch(tag uint64) bool {
	for i, t := range r.order {
		if t == tag {
			r.order = append(append(r.order[:i:i], r.order[i+1:]...), tag)
			return true
		}
	}
	return false
}

func (r *referenceSet) insert(tag uint64) {
	if r.touch(tag) {
		return
	}
	if len(r.order) == r.ways {
		r.order = r.order[1:]
	}
	r.order = append(r.order, tag)
}

// TestLRUAgainstReferenceModel drives the cache and a reference model with
// the same random operation stream and checks hit/miss agreement.
func TestLRUAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ways := range []int{1, 2, 4, 8} {
		c := New[struct{}](1, ways)
		ref := &referenceSet{ways: ways}
		for op := 0; op < 10000; op++ {
			tag := uint64(rng.Intn(ways * 3))
			if rng.Intn(2) == 0 {
				_, hit := c.Lookup(0, tag)
				refHit := ref.touch(tag)
				if hit != refHit {
					t.Fatalf("ways=%d op=%d lookup(%d): cache %v, reference %v",
						ways, op, tag, hit, refHit)
				}
			} else {
				c.Insert(0, tag)
				ref.insert(tag)
			}
		}
	}
}
