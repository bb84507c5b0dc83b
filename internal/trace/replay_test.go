package trace

import (
	"math/rand"
	"sync"
	"testing"
)

func randomRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	pc := uint64(0x10000)
	for i := range recs {
		recs[i] = Record{
			PC:    pc,
			Class: Class(rng.Intn(numClasses)),
			Op:    OpClass(rng.Intn(NumOpClasses)),
		}
		if recs[i].Class.IsBranch() {
			recs[i].Taken = rng.Intn(3) > 0
			if recs[i].Taken {
				recs[i].Target = pc + uint64(rng.Intn(4096))*4 - 2048*4
			}
		}
		if rng.Intn(4) == 0 {
			recs[i].Addr = uint64(rng.Intn(1<<20) * 8)
		}
		if rng.Intn(2) == 0 {
			recs[i].Dst = uint8(rng.Intn(33))
			recs[i].Src1 = uint8(rng.Intn(33))
		}
		if recs[i].Taken {
			pc = recs[i].Target
		} else {
			pc += 4
		}
	}
	return recs
}

// loopingRecords draws n records from a small static program, the way a
// captured program repeats its code: 256 fixed instructions, each with its
// own class, op, registers and targets, run from the first and back to it
// after the last. A conditional branch always carries its one target and
// is taken with a bias of its own; a direct jump or call goes forward to
// its target; an indirect jump or call, or a return, goes to one of up to
// four targets, its last one three times in four; a memory instruction
// walks its own stride. So a PC mostly repeats what it did last time,
// which the compressed codec codes as hits (a target-last or address
// mode), where randomRecords draws every field afresh.
func loopingRecords(n int, seed int64) []Record {
	const size = 256
	const base = uint64(0x40000)
	type inst struct {
		rec     Record   // the static fields, and a direct branch's target
		targets []uint64 // an indirect branch's targets
		bias    int      // a conditional branch is taken when rng.Intn(8) < bias
		stride  uint64   // a memory instruction's address stride; 0 for none
	}
	rng := rand.New(rand.NewSource(seed))
	at := func(i int) uint64 { return base + uint64(i%size)*4 }
	prog := make([]inst, size)
	for i := range prog {
		in := &prog[i]
		in.rec = Record{PC: at(i), Op: OpClass(rng.Intn(NumOpClasses)),
			Dst: uint8(rng.Intn(33)), Src1: uint8(rng.Intn(33)), Src2: uint8(rng.Intn(33))}
		if rng.Intn(5) < 2 {
			in.rec.Class = Class(1 + rng.Intn(numClasses-1))
		}
		switch in.rec.Class {
		case ClassOther:
			if rng.Intn(3) == 0 {
				in.rec.Addr = uint64(rng.Intn(1<<16)) * 8
				in.stride = uint64(rng.Intn(4)) * 8
			}
		case ClassCondDirect:
			in.rec.Target = at(rng.Intn(size))
			in.bias = rng.Intn(8)
		case ClassUncondDirect, ClassCall:
			in.rec.Target = at(i + 1 + rng.Intn(32))
		default:
			for range 1 + rng.Intn(4) {
				in.targets = append(in.targets, at(rng.Intn(size)))
			}
			in.rec.Target = in.targets[0]
		}
	}
	recs := make([]Record, n)
	idx := 0
	for i := range recs {
		in := &prog[idx]
		r := &recs[i]
		*r = in.rec
		switch r.Class {
		case ClassOther:
			in.rec.Addr += in.stride
		case ClassCondDirect:
			r.Taken = rng.Intn(8) < in.bias
		case ClassUncondDirect, ClassCall:
			r.Taken = true
		default:
			r.Taken = true
			if rng.Intn(4) == 0 {
				in.rec.Target = in.targets[rng.Intn(len(in.targets))]
				r.Target = in.rec.Target
			}
		}
		idx = int((r.NextPC()-base)/4) % size
	}
	return recs
}

func TestReplayRoundTrip(t *testing.T) {
	recs := randomRecords(5000, 42)
	rep := Capture(NewSliceSource(recs))
	if rep.Len() != int64(len(recs)) {
		t.Fatalf("Len = %d, want %d", rep.Len(), len(recs))
	}
	got := Collect(rep.Open())
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestConcurrentCursors advances many cursors over one Replay from
// separate goroutines; run under -race this asserts the shared blocks are
// read-only.
func TestConcurrentCursors(t *testing.T) {
	recs := randomRecords(3000, 99)
	rep := Capture(NewSliceSource(recs))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := Collect(rep.Open())
			if len(got) != len(recs) {
				t.Errorf("decoded %d records, want %d", len(got), len(recs))
				return
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Errorf("record %d mismatch", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCursorReset(t *testing.T) {
	recs := randomRecords(100, 3)
	rep := Capture(NewSliceSource(recs))
	c := rep.Open().(*Cursor)
	first := Collect(c)
	c.Reset()
	second := Collect(c)
	if len(first) != len(recs) || len(second) != len(recs) {
		t.Fatalf("pass lengths %d/%d, want %d", len(first), len(second), len(recs))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("record %d differs after Reset", i)
		}
	}
}

func TestEmptyReplay(t *testing.T) {
	rep := Capture(NewSliceSource(nil))
	if rep.Len() != 0 || rep.NumBlocks() != 0 || rep.MemBytes() != 0 {
		t.Fatalf("empty capture: Len=%d NumBlocks=%d MemBytes=%d", rep.Len(), rep.NumBlocks(), rep.MemBytes())
	}
	var r Record
	if rep.Open().Next(&r) {
		t.Fatal("empty replay produced a record")
	}
}

// BenchmarkCursor measures Cursor.Next over an in-memory capture: one
// column copy per record.
func BenchmarkCursor(b *testing.B) {
	rep := Capture(NewSliceSource(randomRecords(4096, 1)))
	var r Record
	src := rep.Open().(*Cursor)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !src.Next(&r) {
			src.Reset()
		}
	}
}
