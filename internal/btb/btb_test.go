package btb

import (
	"math/rand/v2"
	"testing"

	"repro/internal/trace"
)

func taken(pc, target uint64, class trace.Class) trace.Record {
	return trace.Record{PC: pc, Target: target, Class: class, Taken: true}
}

func TestBTBMissThenHit(t *testing.T) {
	b := New(DefaultConfig())
	if _, ok := b.Lookup(0x1000); ok {
		t.Fatal("hit in empty BTB")
	}
	r := taken(0x1000, 0x2000, trace.ClassUncondDirect)
	b.Update(&r)
	e, ok := b.Lookup(0x1000)
	if !ok || e.Target != 0x2000 || e.Class != trace.ClassUncondDirect {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
}

func TestBTBNotTakenNotAllocated(t *testing.T) {
	b := New(DefaultConfig())
	r := trace.Record{PC: 0x1000, Class: trace.ClassCondDirect, Taken: false}
	b.Update(&r)
	if _, ok := b.Lookup(0x1000); ok {
		t.Fatal("not-taken branch allocated a BTB entry")
	}
	nb := trace.Record{PC: 0x1000, Class: trace.ClassOther}
	b.Update(&nb)
	if _, ok := b.Lookup(0x1000); ok {
		t.Fatal("non-branch allocated a BTB entry")
	}
}

func TestDefaultStrategyTracksLastTarget(t *testing.T) {
	b := New(DefaultConfig())
	for _, tgt := range []uint64{0x2000, 0x3000, 0x4000} {
		r := taken(0x1000, tgt, trace.ClassIndJump)
		b.Update(&r)
		e, ok := b.Lookup(0x1000)
		if !ok || e.Target != tgt {
			t.Fatalf("after update to %#x: entry %+v ok=%v", tgt, e, ok)
		}
	}
}

func TestTwoBitStrategy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyTwoBit
	b := New(cfg)

	update := func(tgt uint64) {
		r := taken(0x1000, tgt, trace.ClassIndJump)
		b.Update(&r)
	}
	target := func() uint64 {
		e, ok := b.Lookup(0x1000)
		if !ok {
			t.Fatal("BTB miss")
		}
		return e.Target
	}

	update(0xA)
	if target() != 0xA {
		t.Fatal("initial target not installed")
	}
	// One deviation: target must be retained.
	update(0xB)
	if target() != 0xA {
		t.Fatal("2-bit strategy replaced target after one miss")
	}
	// Return to A resets the counter.
	update(0xA)
	update(0xB)
	if target() != 0xA {
		t.Fatal("counter did not reset on correct prediction")
	}
	// Two consecutive misses replace the target.
	update(0xB)
	if target() != 0xB {
		t.Fatal("2-bit strategy did not replace target after two misses")
	}
}

func TestTwoBitDirectBranchUnaffected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyTwoBit
	b := New(cfg)
	r := taken(0x1000, 0x2000, trace.ClassUncondDirect)
	b.Update(&r)
	r.Target = 0x3000 // a direct branch's target "changing" (e.g. re-use of PC)
	b.Update(&r)
	e, _ := b.Lookup(0x1000)
	if e.Target != 0x3000 {
		t.Fatal("direct branch target should always be rewritten")
	}
}

func TestBTBConflictEviction(t *testing.T) {
	b := New(Config{Sets: 2, Ways: 1, Strategy: StrategyDefault})
	// Two PCs mapping to the same set (word index differs by Sets).
	pcA := uint64(0x1000)
	pcB := pcA + 2*4
	rA := taken(pcA, 0x2000, trace.ClassUncondDirect)
	rB := taken(pcB, 0x3000, trace.ClassUncondDirect)
	b.Update(&rA)
	b.Update(&rB)
	if _, ok := b.Lookup(pcA); ok {
		t.Fatal("conflicting entry was not evicted from 1-way set")
	}
	if e, ok := b.Lookup(pcB); !ok || e.Target != 0x3000 {
		t.Fatal("newest entry missing after conflict")
	}
}

func TestBTBCostBits(t *testing.T) {
	b := New(DefaultConfig())
	// 1024 entries x 90 bits, the paper's accounting.
	if got := b.CostBits(); got != 1024*90 {
		t.Fatalf("CostBits = %d, want %d", got, 1024*90)
	}
}

func TestBTBReset(t *testing.T) {
	b := New(DefaultConfig())
	r := taken(0x1000, 0x2000, trace.ClassUncondDirect)
	b.Update(&r)
	b.Reset()
	if _, ok := b.Lookup(0x1000); ok {
		t.Fatal("entry survived reset")
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyDefault.String() != "default" || StrategyTwoBit.String() != "2-bit" {
		t.Fatal("strategy names wrong")
	}
}

// TestHoldsMatchesBTB pins Config.Holds against a real BTB over random
// PC sets and geometries, power-of-two set counts or not: it reports
// true exactly when inserting each PC once as a taken branch leaves every
// PC present. PCs are drawn from a small range at any alignment, so sets
// overflow and some PCs share a word (and so an entry).
func TestHoldsMatchesBTB(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	held := map[bool]int{}
	for trial := 0; trial < 2000; trial++ {
		cfg := Config{Sets: 1 + rng.IntN(12), Ways: 1 + rng.IntN(6), Strategy: Strategy(rng.IntN(2))}
		if rng.IntN(2) == 0 {
			cfg.Sets = 1 << rng.IntN(6)
		}
		pcs := make([]uint64, rng.IntN(3*cfg.Sets*cfg.Ways+2))
		for i := range pcs {
			pcs[i] = 0x4000 + rng.Uint64N(uint64(16*cfg.Sets*cfg.Ways))
		}
		b := New(cfg)
		for _, pc := range pcs {
			r := taken(pc, pc+64, trace.ClassUncondDirect)
			b.Update(&r)
		}
		present := true
		for _, pc := range pcs {
			if _, ok := b.Lookup(pc); !ok {
				present = false
			}
		}
		got := cfg.Holds(pcs)
		if got != present {
			t.Fatalf("%+v over %d PCs %x: Holds = %v, but every PC present = %v", cfg, len(pcs), pcs, got, present)
		}
		held[got]++
	}
	if held[true] < 100 || held[false] < 100 {
		t.Errorf("trials held %d and evicted %d times; want both common", held[true], held[false])
	}
	if (Config{Sets: 0, Ways: 4}).Holds(nil) || (Config{Sets: 4, Ways: 0}).Holds(nil) {
		t.Error("an impossible geometry holds")
	}
}
