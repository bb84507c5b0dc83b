package trace_test

// Fuzz targets for the trace decoder, pinning down the failure contract
// of ErrCorrupt: on arbitrary input — including truncated and bit-flipped
// real captures, which the seed corpus is built from — the TCSTORE1
// reader must never panic, must report any failure as an
// ErrCorrupt-wrapped error, and must round-trip whatever it decodes
// cleanly.
//
// This file lives in an external test package so it can import
// internal/workload (which imports trace) to seed from real captured
// traces rather than synthetic records.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// addDamagedVariants seeds the corpus with the intact capture plus the
// damage shapes the harness injects: truncation at interesting cuts and a
// bit flip in the header, early, and late in the record stream.
func addDamagedVariants(f *testing.F, seed []byte) {
	f.Add(seed)
	for _, cut := range []int{0, 4, 8, len(seed) / 2, len(seed) - 1} {
		if cut >= 0 && cut <= len(seed) {
			f.Add(append([]byte(nil), seed[:cut]...))
		}
	}
	for _, at := range []int{5, 16, len(seed) / 2, len(seed) - 3} {
		if at >= 0 && at < len(seed) {
			flipped := append([]byte(nil), seed...)
			flipped[at] ^= 0x80
			f.Add(flipped)
		}
	}
}

// drain decodes src to exhaustion and asserts the decoder failure
// contract; it returns the cleanly decoded records.
func drain(t *testing.T, src trace.Source) []trace.Record {
	t.Helper()
	var recs []trace.Record
	var r trace.Record
	for src.Next(&r) {
		recs = append(recs, r)
	}
	if err := trace.SourceErr(src); err != nil && !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
	}
	if src.Next(&r) {
		t.Fatal("Next returned true after reporting end of stream")
	}
	return recs
}

// FuzzStore covers the out-of-core TCSTORE reader: arbitrary bytes —
// seeded with intact, truncated and bit-flipped images of a real capture,
// raw and compressed — must never panic, must reject damage with
// ErrCorrupt (at open or at the damaged group), and whatever reads
// cleanly must re-encode to the same record count.
func FuzzStore(f *testing.F) {
	w, err := workload.ByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if _, err := trace.WriteStore(&buf, trace.NewLimit(w.Open(), 10_000), trace.StoreOptions{
			Compress:     compress,
			GroupRecords: 4096,
		}); err != nil {
			f.Fatal(err)
		}
		addDamagedVariants(f, buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := trace.OpenStore(bytes.NewReader(data), int64(len(data)), 1<<20)
		if err != nil {
			if !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("OpenStore error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		recs := drain(t, s.Open())
		if int64(len(recs)) == s.Len() {
			var out bytes.Buffer
			n, err := trace.WriteStore(&out, trace.NewSliceSource(recs), trace.StoreOptions{GroupRecords: 4096})
			if err != nil || n != s.Len() {
				t.Fatalf("re-encode: n=%d err=%v, want %d", n, err, s.Len())
			}
		}
	})
}

// FuzzCursor covers the record Cursor that every BlockSource's Open
// returns: over an arbitrary store image it must honour the failure
// contract, yield exactly the store's record count when it ends cleanly,
// and, reset after n records (past a failure or the end included), replay
// the same records and error as a fresh cursor. The records it reads,
// captured into a Replay, must come back unchanged through the Replay's
// cursor.
func FuzzCursor(f *testing.F) {
	w, err := workload.ByName("go")
	if err != nil {
		f.Fatal(err)
	}
	const n = 10_000
	var img bytes.Buffer
	if _, err := trace.WriteStore(&img, trace.NewLimit(w.Open(), n), trace.StoreOptions{
		Compress:     true,
		GroupRecords: trace.BlockLen,
	}); err != nil {
		f.Fatal(err)
	}
	seed := img.Bytes()
	for _, cut := range []int{0, 1, len(seed) / 2, len(seed) - 1} {
		f.Add(append([]byte(nil), seed[:cut]...), int64(n))
	}
	f.Add(seed, int64(n))
	f.Add(seed, int64(n+1))
	f.Add(seed, int64(trace.BlockLen+1))
	flipped := append([]byte(nil), seed...)
	flipped[len(seed)/3] ^= 0xFF
	f.Add(flipped, int64(n))
	f.Fuzz(func(t *testing.T, data []byte, n int64) {
		s, err := trace.OpenStore(bytes.NewReader(data), int64(len(data)), 0)
		if err != nil {
			if !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("OpenStore error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		fresh := s.Open()
		want := drain(t, fresh)
		wantErr := trace.SourceErr(fresh)
		if wantErr == nil && int64(len(want)) != s.Len() {
			t.Fatalf("clean cursor decoded %d records, store holds %d", len(want), s.Len())
		}
		c := s.Open().(*trace.Cursor)
		var r trace.Record
		for i := int64(0); i < n && c.Next(&r); i++ {
		}
		c.Reset()
		got := drain(t, c)
		if len(got) != len(want) {
			t.Fatalf("after Reset at %d the cursor decoded %d records, a fresh one %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("after Reset at %d record %d differs:\n  got  %+v\n  want %+v", n, i, got[i], want[i])
			}
		}
		if gotErr := c.Err(); (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("after Reset at %d the cursor reports %v, a fresh one %v", n, gotErr, wantErr)
		}
		replayed := drain(t, trace.Capture(trace.NewSliceSource(want)).Open())
		if len(replayed) != len(want) {
			t.Fatalf("replay of %d decoded records yielded %d", len(want), len(replayed))
		}
		for i := range replayed {
			if replayed[i] != want[i] {
				t.Fatalf("replay record %d differs:\n  got  %+v\n  want %+v", i, replayed[i], want[i])
			}
		}
	})
}
