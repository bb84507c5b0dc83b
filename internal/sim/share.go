package sim

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/trace"
)

// Target caches that index alike. A design-space grid holds many tagless
// and tagged caches that are one predictor in disguise on a capture:
// history bits past the index width, a table larger than the keys the
// capture reaches, tag bits past any collision. A kept walk's replays
// simulate one of each and give its result to the rest.
//
// Each kept event touches one slot of a member's table — for a tagless
// cache an entry, for a tagged cache a line (its set and truncated tag) —
// which the cache's own Slot computes from the event's pc and the
// member's history value. Relabel a member's slots by their first use
// along the events. Two members of one family predict alike at every
// event when their relabelled slot sequences are equal and, for tagged
// caches, either no set of either member ever holds more trained lines
// than it has ways, or both have equal ways and equal relabelled set
// sequences:
//
//   - a tagless table is determined by its entry sequence;
//   - a tagged table whose sets never overflow never evicts, so it is a
//     map from line to last target;
//   - with overflow, LRU works per set, driven by one tick stream, so
//     equal set sequences and ways keep two tables in lock step.
//
// Signatures are computed over distinct keys, not events: a register's
// (pc, value) keys at its full depth, in order of first use, each member
// labelling the keys its own depth distinguishes (maskedKeys) and lifting
// those labels to the full-depth keys, so members of different depths
// compare. Candidate classes are found by hash and compared exactly.
//
// The class table lives on the Walk, so sharing crosses the RunGang calls
// of units and shards until the walk is dropped. A call claims the
// classes it meets first and simulates them; every other member of a
// class waits for its result, after its own call has simulated and
// settled its claims, so no two calls wait on each other. A result that
// carries an Err is not shared: the members waiting on it simulate on
// their own. A member with a telemetry collector, and one of any other
// family, keeps its own table.

// sharedTCs counts, process-wide, the target-cache members that took
// another member's result instead of simulating their own table.
var sharedTCs atomic.Int64

// SharedTargetCaches returns how many target-cache members of kept-walk
// replays, process-wide, simulated no table of their own: their class's
// first member ran it for them (RunGang).
func SharedTargetCaches() int64 { return sharedTCs.Load() }

// Target-cache families a class is one of.
const (
	familyTagless = 1 + iota
	familyTagged
)

// keySet is a list of distinct keys — pc and register value — in order
// of first use along a walk's events: a register's keys at its full
// depth, or the keys a member that reads the register under one mask
// distinguishes, with lift mapping each full-depth key to its masked key.
type keySet struct {
	pcs, vals []uint64
	trains    []bool // an event of the key trains the caches: an indirect jump
	lift      []int32
	index     map[[2]uint64]int32 // key -> position, while the set is built
}

// add records key (pc, val), which trains the caches if trains, and
// returns its position.
func (ks *keySet) add(pc, val uint64, trains bool) int32 {
	key := [2]uint64{pc, val}
	j, ok := ks.index[key]
	if !ok {
		j = int32(len(ks.pcs))
		ks.index[key] = j
		ks.pcs, ks.vals, ks.trains = append(ks.pcs, pc), append(ks.vals, val), append(ks.trains, false)
	}
	ks.trains[j] = ks.trains[j] || trains
	return j
}

// maskKey names a masked keySet: a register and the mask a member reads
// it under.
type maskKey struct {
	reg  int32
	mask uint64
}

// signature is a member's relabelled slot sequence over its masked keys,
// with what its class must also agree on.
type signature struct {
	family int
	reg    int32
	keys   *keySet
	slots  []int32 // per masked key, its slot's label
	ways   int     // a tagged member's ways when a set overflows; else 0
	setOf  []int32 // per slot label, its set's label, when ways > 0
	hash   uint64
}

// tcClass is a class of members that predict alike: the signature of its
// first member, and that member's result once settled.
type tcClass struct {
	sig  signature // slots and setOf owned by the class
	done chan struct{}
	res  AccuracyResult
	ok   bool // res is final and carries no Err: others may take it
}

// matches reports whether s is the class's signature: the same family,
// register, overflow ways and set labels, and the same slot label at
// every full-depth key.
func (c *tcClass) matches(s *signature) bool {
	a := &c.sig
	if a.hash != s.hash || a.family != s.family || a.reg != s.reg || a.ways != s.ways || !slices.Equal(a.setOf, s.setOf) {
		return false
	}
	if a.keys == s.keys {
		return slices.Equal(a.slots, s.slots)
	}
	for k, j := range s.keys.lift {
		if s.slots[j] != a.slots[a.keys.lift[k]] {
			return false
		}
	}
	return true
}

// classes is a walk's table of target-cache classes, with the scratch
// space signatures are computed in.
type classes struct {
	mu     sync.Mutex
	keys   []*keySet // per register, its full-depth keys, built at first use
	masked map[maskKey]*keySet
	table  map[uint64][]*tcClass

	slotLabel, setLabel []int32 // by slot and by set; -1 when unlabelled
	touched             []int   // the labelled slots and sets, to unlabel
	lineLabel           map[tagLine]int32
	slots, setOf, count []int32
	trained             []bool
}

type tagLine struct {
	set int
	tag uint64
}

// memberRole is a member's class, if it has one, and whether this call
// claimed the class: then the member simulates it.
type memberRole struct {
	class *tcClass
	lead  bool
}

// runShared runs members, with their target caches tcs, over w's events,
// simulating one member per target-cache class (see above).
func (w *Walk) runShared(ctx context.Context, members []gangMember, tcs []core.TargetCache) []AccuracyResult {
	roles := make([]memberRole, len(members))
	defer w.settle(roles, nil)
	w.claim(members, tcs, roles)

	var run []int
	for i, r := range roles {
		if r.class == nil || r.lead {
			run = append(run, i)
		}
	}
	out := make([]AccuracyResult, len(members))
	w.replay(ctx, members, tcs, run, out)
	w.settle(roles, out)

	// This call's claims are settled, so a wait is only on another call
	// that simulates its claims before it waits.
	var again []int
	for i, r := range roles {
		if r.class == nil || r.lead {
			continue
		}
		select {
		case <-r.class.done:
		case <-ctx.Done():
		}
		if !closed(r.class.done) || !r.class.ok {
			again = append(again, i)
			continue
		}
		out[i] = r.class.res
		sharedTCs.Add(1)
	}
	w.replay(ctx, members, tcs, again, out)
	return out
}

// closed reports whether done is closed, without blocking.
func closed(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// replay simulates the members idx of members over w's events, into out.
func (w *Walk) replay(ctx context.Context, members []gangMember, tcs []core.TargetCache, idx []int, out []AccuracyResult) {
	if len(idx) == 0 {
		return
	}
	g := &gang{
		members:  make([]gangMember, len(idx)),
		tcs:      make([]core.TargetCache, len(idx)),
		res:      w.res,
		branches: w.branches,
		insns:    w.insns,
	}
	for k, i := range idx {
		g.members[k], g.tcs[k] = members[i], tcs[i]
	}
	for k, res := range g.run(ctx, span{walk: w}) {
		out[idx[k]] = res
	}
}

// claim gives each member its role: every member without a collector
// whose cache is tagless or tagged joins its class, claiming the class
// when no call has.
func (w *Walk) claim(members []gangMember, tcs []core.TargetCache, roles []memberRole) {
	cs := &w.classes
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for i := range members {
		m := &members[i]
		if m.tel != nil {
			continue
		}
		sig, ok := w.signature(tcs[i], m.hist, m.mask)
		if !ok {
			continue
		}
		var c *tcClass
		for _, cand := range cs.table[sig.hash] {
			if cand.matches(&sig) {
				c = cand
				break
			}
		}
		if c == nil {
			sig.slots, sig.setOf = slices.Clone(sig.slots), slices.Clone(sig.setOf)
			c = &tcClass{sig: sig, done: make(chan struct{})}
			if cs.table == nil {
				cs.table = make(map[uint64][]*tcClass)
			}
			cs.table[sig.hash] = append(cs.table[sig.hash], c)
			roles[i].lead = true
		}
		roles[i].class = c
	}
}

// settle publishes the classes this call leads: with out, their
// members' results, shared when they carry no Err; without it — a replay
// that panicked — none. A class without a shareable result leaves the
// table, so a later call claims it again. Waiters are released either
// way. A class is settled once; a second call finds it done.
func (w *Walk) settle(roles []memberRole, out []AccuracyResult) {
	cs := &w.classes
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for i, r := range roles {
		c := r.class
		if !r.lead || closed(c.done) {
			continue
		}
		if out != nil && out[i].Err == nil {
			c.res, c.ok = out[i], true
		} else {
			cands := cs.table[c.sig.hash]
			cs.table[c.sig.hash] = slices.DeleteFunc(cands, func(x *tcClass) bool { return x == c })
		}
		close(c.done)
	}
}

// signature computes the signature of a member with target cache tc
// that reads register reg under mask, reporting false for a cache of
// another family. The caller holds w.classes.mu; the signature's slices
// are scratch until the next call.
func (w *Walk) signature(tc core.TargetCache, reg int32, mask uint64) (signature, bool) {
	sig := signature{reg: reg}
	cs := &w.classes
	switch tc := tc.(type) {
	case *core.Tagless:
		sig.family, sig.keys = familyTagless, w.maskedKeys(reg, mask)
		cs.taglessSlots(tc, sig.keys)
	case *core.Tagged:
		sig.family, sig.keys = familyTagged, w.maskedKeys(reg, mask)
		if cs.taggedSlots(tc, sig.keys) {
			sig.ways, sig.setOf = tc.Config().Ways, cs.setOf
		}
	default:
		return sig, false
	}
	sig.slots = cs.slots

	// FNV-1a over the labels at the full-depth keys, so members of every
	// depth hash alike.
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v int64) { h = (h ^ uint64(v)) * prime }
	mix(int64(sig.family))
	mix(int64(reg))
	mix(int64(sig.ways))
	for _, j := range sig.keys.lift {
		mix(int64(sig.slots[j]))
	}
	for _, s := range sig.setOf {
		mix(int64(s))
	}
	sig.hash = h
	return sig, true
}

// taglessSlots labels, into cs.slots, the entry each of mk's keys
// selects in tc, by first use.
func (cs *classes) taglessSlots(tc *core.Tagless, mk *keySet) {
	cs.slots, cs.touched = cs.slots[:0], cs.touched[:0]
	cs.slotLabel = labels(cs.slotLabel, tc.Config().Entries)
	for j := range mk.pcs {
		s := int(tc.Slot(mk.pcs[j], mk.vals[j]))
		l := cs.slotLabel[s]
		if l < 0 {
			l = int32(len(cs.touched))
			cs.slotLabel[s] = l
			cs.touched = append(cs.touched, s)
		}
		cs.slots = append(cs.slots, l)
	}
	for _, s := range cs.touched {
		cs.slotLabel[s] = -1
	}
}

// taggedSlots labels, into cs.slots, the line each of mk's keys selects
// in tc, by first use, and into cs.setOf each line's set, by first use.
// It reports whether some set of tc gets more trained lines than it has
// ways.
func (cs *classes) taggedSlots(tc *core.Tagged, mk *keySet) (overflow bool) {
	cfg := tc.Config()
	cs.slots, cs.touched = cs.slots[:0], cs.touched[:0]
	cs.setOf, cs.count, cs.trained = cs.setOf[:0], cs.count[:0], cs.trained[:0]
	cs.setLabel = labels(cs.setLabel, cfg.Entries/cfg.Ways)
	if cs.lineLabel == nil {
		cs.lineLabel = make(map[tagLine]int32)
	}
	clear(cs.lineLabel)
	for j := range mk.pcs {
		set, tag := tc.Slot(mk.pcs[j], mk.vals[j])
		l, ok := cs.lineLabel[tagLine{set, tag}]
		if !ok {
			l = int32(len(cs.setOf))
			cs.lineLabel[tagLine{set, tag}] = l
			sl := cs.setLabel[set]
			if sl < 0 {
				sl = int32(len(cs.count))
				cs.setLabel[set] = sl
				cs.touched = append(cs.touched, set)
				cs.count = append(cs.count, 0)
			}
			cs.setOf = append(cs.setOf, sl)
			cs.trained = append(cs.trained, false)
		}
		if mk.trains[j] && !cs.trained[l] {
			cs.trained[l] = true
			cs.count[cs.setOf[l]]++
			overflow = overflow || int(cs.count[cs.setOf[l]]) > cfg.Ways
		}
		cs.slots = append(cs.slots, l)
	}
	for _, s := range cs.touched {
		cs.setLabel[s] = -1
	}
	return overflow
}

// labels returns buf with at least n entries, every one of the first n
// -1: an unlabelled table of n slots. Entries past a reused buffer's old
// length start unlabelled too; the caller unlabels what it labels.
func labels(buf []int32, n int) []int32 {
	for len(buf) < n {
		buf = append(buf, -1)
	}
	return buf[:n]
}

// maskedKeys returns the keys a member that reads register reg under
// mask distinguishes, collecting the register's keys and then the masked
// ones at their first use. The caller holds w.classes.mu.
func (w *Walk) maskedKeys(reg int32, mask uint64) *keySet {
	cs := &w.classes
	if mk := cs.masked[maskKey{reg, mask}]; mk != nil {
		return mk
	}
	if cs.keys == nil {
		cs.keys = make([]*keySet, len(w.depths))
		cs.masked = make(map[maskKey]*keySet)
	}
	full := cs.keys[reg]
	if full == nil {
		full = &keySet{index: make(map[[2]uint64]int32)}
		nh := len(w.depths)
		for _, c := range w.chunks {
			for ei := range c.events {
				ev := &c.events[ei]
				full.add(ev.pc, c.hvals[ei*nh+int(reg)], ev.cls == trace.ClassIndJump || ev.cls == trace.ClassIndCall)
			}
		}
		full.index = nil
		cs.keys[reg] = full
	}
	mk := &keySet{lift: make([]int32, len(full.pcs)), index: make(map[[2]uint64]int32)}
	for j := range full.pcs {
		mk.lift[j] = mk.add(full.pcs[j], full.vals[j]&mask, full.trains[j])
	}
	mk.index = nil
	cs.masked[maskKey{reg, mask}] = mk
	return mk
}
