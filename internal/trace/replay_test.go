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
