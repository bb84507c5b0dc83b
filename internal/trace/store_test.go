package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// writeStore encodes recs as a TCSTORE1 byte image.
func writeStore(t testing.TB, recs []Record, opts StoreOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteStore(&buf, NewSliceSource(recs), opts)
	if err != nil {
		t.Fatalf("WriteStore: %v", err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("WriteStore wrote %d records, want %d", n, len(recs))
	}
	return buf.Bytes()
}

func openStore(t testing.TB, img []byte, cacheBytes int64) *Store {
	t.Helper()
	s, err := OpenStore(bytes.NewReader(img), int64(len(img)), cacheBytes)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

// damagedStore opens an uncompressed image of recs in one-block groups
// with 16 bytes overwritten three quarters of the way in: the blocks
// before the damaged group read cleanly, and reading it fails its CRC.
func damagedStore(t testing.TB, recs []Record) *Store {
	t.Helper()
	img := writeStore(t, recs, StoreOptions{GroupRecords: BlockLen})
	at := len(img) * 3 / 4
	copy(img[at:at+16], bytes.Repeat([]byte{0xFF}, 16))
	return openStore(t, img, 0)
}

func TestStoreRoundTrip(t *testing.T) {
	// A partial final group and a partial final block, to cover both
	// boundary shapes.
	recs := randomRecords(2*BlockLen+2*BlockLen+BlockLen/2+17, 21)
	for _, tc := range []struct {
		name string
		opts StoreOptions
	}{
		{"raw", StoreOptions{GroupRecords: 2 * BlockLen}},
		{"flate", StoreOptions{Compress: true, GroupRecords: 2 * BlockLen}},
		{"default-group", StoreOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := writeStore(t, recs, tc.opts)
			s := openStore(t, img, 0)
			if s.Len() != int64(len(recs)) {
				t.Fatalf("Len = %d, want %d", s.Len(), len(recs))
			}
			if s.Compressed() != tc.opts.Compress {
				t.Fatalf("Compressed = %v", s.Compressed())
			}
			got := Collect(s.Open())
			if len(got) != len(recs) {
				t.Fatalf("decoded %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
				}
			}
			// BlockAt must match the in-memory capture's decomposition
			// block-for-block (the layout invariant kernels rely on).
			rep := Capture(NewSliceSource(recs))
			if s.NumBlocks() != rep.NumBlocks() {
				t.Fatalf("NumBlocks = %d, want %d", s.NumBlocks(), rep.NumBlocks())
			}
			for bi := 0; bi < rep.NumBlocks(); bi++ {
				sb, err := s.BlockAt(bi)
				if err != nil {
					t.Fatalf("BlockAt(%d): %v", bi, err)
				}
				mb, _ := rep.BlockAt(bi)
				if sb.Len() != mb.Len() {
					t.Fatalf("block %d: len %d, want %d", bi, sb.Len(), mb.Len())
				}
				var a, b Record
				for i := 0; i < sb.Len(); i++ {
					sb.Record(i, &a)
					mb.Record(i, &b)
					if a != b {
						t.Fatalf("block %d record %d: got %+v, want %+v", bi, i, a, b)
					}
				}
			}
		})
	}
}

// TestCodecRoundTrip pins that TCSTORE1, the one trace file codec,
// round-trips every field at full range: random 64-bit addresses, every
// class and op class, any register byte.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = Record{
			PC:     rng.Uint64(),
			Target: rng.Uint64(),
			Addr:   rng.Uint64(),
			Class:  Class(rng.Intn(numClasses)),
			Op:     OpClass(rng.Intn(NumOpClasses)),
			Taken:  rng.Intn(2) == 0,
			Dst:    uint8(rng.Intn(256)),
			Src1:   uint8(rng.Intn(256)),
			Src2:   uint8(rng.Intn(256)),
		}
	}
	for _, compress := range []bool{false, true} {
		got := Collect(openStore(t, writeStore(t, recs, StoreOptions{Compress: compress}), 0).Open())
		if len(got) != len(recs) {
			t.Fatalf("compress=%v: read %d records, want %d", compress, len(got), len(recs))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("compress=%v record %d: got %+v, want %+v", compress, i, got[i], recs[i])
			}
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(pc, tgt, addr uint64, class, op, dst, s1, s2 uint8, taken bool) bool {
		in := Record{
			PC: pc, Target: tgt, Addr: addr,
			Class: Class(class % uint8(numClasses)),
			Op:    OpClass(op % uint8(NumOpClasses)),
			Taken: taken, Dst: dst, Src1: s1, Src2: s2,
		}
		var img bytes.Buffer
		if _, err := WriteStore(&img, NewSliceSource([]Record{in}), StoreOptions{GroupRecords: BlockLen}); err != nil {
			return false
		}
		s, err := OpenStore(bytes.NewReader(img.Bytes()), int64(img.Len()), 0)
		if err != nil {
			return false
		}
		got := Collect(s.Open())
		return len(got) == 1 && got[0] == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCodecBadMagic: a store whose leading or trailing magic is damaged
// is rejected at open.
func TestCodecBadMagic(t *testing.T) {
	img := writeStore(t, randomRecords(100, 1), StoreOptions{})
	for _, at := range []int{0, len(img) - 1} {
		bad := append([]byte(nil), img...)
		bad[at] ^= 0xFF
		_, err := OpenStore(bytes.NewReader(bad), int64(len(bad)), 0)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("magic byte %d damaged: err=%v, want a bad-magic ErrCorrupt", at, err)
		}
	}
}

// TestCodecTruncated: a store file cut anywhere short of its end is
// rejected at open (a file cut after open is TestStoreTruncatedAfterOpen).
func TestCodecTruncated(t *testing.T) {
	img := writeStore(t, randomRecords(100, 2), StoreOptions{})
	for cut := 0; cut < len(img); cut++ {
		if _, err := OpenStore(bytes.NewReader(img[:cut]), int64(cut), 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("store cut to %d of %d bytes: err=%v, want ErrCorrupt", cut, len(img), err)
		}
	}
}

func TestStoreEmpty(t *testing.T) {
	img := writeStore(t, nil, StoreOptions{})
	s := openStore(t, img, 0)
	if s.Len() != 0 || s.NumBlocks() != 0 {
		t.Fatalf("empty store: Len=%d NumBlocks=%d", s.Len(), s.NumBlocks())
	}
	var r Record
	if s.Open().Next(&r) {
		t.Fatal("empty store produced a record")
	}
}

// TestStoreDamage flips bits and truncates a store image, asserting the
// reader's contract: no panic, and either the file is rejected with
// ErrCorrupt (at open or at first damaged group) or every record still
// reads back exactly — damage is never silently misread.
func TestStoreDamage(t *testing.T) {
	recs := randomRecords(3*BlockLen+100, 5)
	for _, compress := range []bool{false, true} {
		img := writeStore(t, recs, StoreOptions{Compress: compress, GroupRecords: BlockLen})

		check := func(t *testing.T, damaged []byte) {
			s, err := OpenStore(bytes.NewReader(damaged), int64(len(damaged)), 0)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("open error does not wrap ErrCorrupt: %v", err)
				}
				return
			}
			src := s.Open()
			var got []Record
			var r Record
			for src.Next(&r) {
				got = append(got, r)
			}
			if err := SourceErr(src); err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("read error does not wrap ErrCorrupt: %v", err)
				}
				return
			}
			if len(got) != len(recs) {
				t.Fatalf("damaged store read cleanly but returned %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("damaged store read cleanly but record %d differs", i)
				}
			}
		}

		// Every byte of the magic, index and footer; a stride through the
		// group payloads and CRCs.
		var offs []int
		for o := 0; o < 8 && o < len(img); o++ {
			offs = append(offs, o)
		}
		for o := len(img) - storeFooterLen - 4*storeIndexEntryLen; o < len(img); o++ {
			if o >= 0 {
				offs = append(offs, o)
			}
		}
		for o := 8; o < len(img); o += 499 {
			offs = append(offs, o)
		}
		for _, o := range offs {
			for _, bit := range []byte{0x01, 0x80} {
				flipped := append([]byte(nil), img...)
				flipped[o] ^= bit
				check(t, flipped)
			}
		}
		for _, cut := range []int{0, 7, 8, len(img) / 3, len(img) - storeFooterLen, len(img) - 1} {
			if cut >= 0 && cut <= len(img) {
				check(t, img[:cut])
			}
		}
	}
}

func TestStoreLRUCache(t *testing.T) {
	recs := randomRecords(4*BlockLen, 9)
	img := writeStore(t, recs, StoreOptions{GroupRecords: BlockLen})
	// Cache sized for exactly two decoded groups.
	s := openStore(t, img, 2*BlockLen*storeBytesPerRecord)

	readBlock := func(i int) {
		if _, err := s.BlockAt(i); err != nil {
			t.Fatalf("BlockAt(%d): %v", i, err)
		}
	}
	readBlock(0) // miss
	readBlock(0) // hit
	readBlock(1) // miss
	readBlock(2) // miss, evicts group 0
	readBlock(0) // miss again
	st := s.CacheStats()
	if st.Hits != 1 || st.Misses != 4 || st.Evictions < 1 {
		t.Fatalf("cache stats %+v, want 1 hit, 4 misses, >=1 eviction", st)
	}

	// Concurrent readers over a thrashing cache: under -race this pins
	// that eviction never invalidates blocks another goroutine holds.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for bi := 0; bi < s.NumBlocks(); bi++ {
					i := bi
					if g%2 == 1 {
						i = s.NumBlocks() - 1 - bi
					}
					blk, err := s.BlockAt(i)
					if err != nil {
						t.Errorf("BlockAt(%d): %v", i, err)
						return
					}
					var r Record
					blk.Record(0, &r)
					if r.PC != recs[i*BlockLen].PC {
						t.Errorf("block %d: pc %#x, want %#x", i, r.PC, recs[i*BlockLen].PC)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStoreBadGroupSize(t *testing.T) {
	if _, err := WriteStore(&bytes.Buffer{}, NewSliceSource(nil), StoreOptions{GroupRecords: 100}); err == nil {
		t.Fatal("WriteStore accepted a group size that is not a block multiple")
	}
}

// TestStoreTruncatedAfterOpen pins the store's contract for a file that
// shrinks beneath an open Store: reading the cut group reports an
// ErrCorrupt naming the truncation, groups before it still read, and
// other read errors pass through unchanged.
func TestStoreTruncatedAfterOpen(t *testing.T) {
	recs := randomRecords(2*storeGroupRecords+10_000, 17)
	path := filepath.Join(t.TempDir(), "t.tcstore")
	if err := os.WriteFile(path, writeStore(t, recs, StoreOptions{}), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStoreFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := os.Truncate(path, s.SizeBytes()-200_000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BlockAt(0); err != nil {
		t.Fatalf("BlockAt(0) before the cut: %v", err)
	}
	_, err = s.BlockAt(s.NumBlocks() - 1)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("BlockAt(last) after truncation: err=%v, want a truncated ErrCorrupt", err)
	}

	errDisk := errors.New("disk on fire")
	img := writeStore(t, recs[:BlockLen], StoreOptions{})
	fr := &failingReader{ReaderAt: bytes.NewReader(img)}
	fs, err := OpenStore(fr, int64(len(img)), 0)
	if err != nil {
		t.Fatal(err)
	}
	fr.err = errDisk
	if _, err := fs.BlockAt(0); !errors.Is(err, errDisk) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("BlockAt over a failing reader: err=%v, want the read error unchanged", err)
	}
}

// failingReader fails every read with err once err is set.
type failingReader struct {
	io.ReaderAt
	err error
}

func (r *failingReader) ReadAt(p []byte, off int64) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	return r.ReaderAt.ReadAt(p, off)
}

func TestWriteStorePropagatesSourceError(t *testing.T) {
	damaged := damagedStore(t, randomRecords(BlockLen, 3))
	var out bytes.Buffer
	if _, err := WriteStore(&out, damaged.Open(), StoreOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("WriteStore over damaged source: err=%v, want ErrCorrupt", err)
	}
}

func TestConsumeBatchesMatchesConsume(t *testing.T) {
	recs := randomRecords(2*BlockLen+345, 13)
	rep := Capture(NewSliceSource(recs))
	want := NewStats().Consume(rep.Open())

	img := writeStore(t, recs, StoreOptions{Compress: true, GroupRecords: BlockLen})
	s := openStore(t, img, 0)
	got, err := NewStats().ConsumeBatches(s, 0)
	if err != nil {
		t.Fatalf("ConsumeBatches: %v", err)
	}
	if *sumStats(got) != *sumStats(want) {
		t.Fatalf("stats differ: got %+v, want %+v", sumStats(got), sumStats(want))
	}
	if got.StaticIndJumps() != want.StaticIndJumps() {
		t.Fatalf("static ind jumps %d, want %d", got.StaticIndJumps(), want.StaticIndJumps())
	}

	// A limit stops exactly at the requested record count.
	limited, err := NewStats().ConsumeBatches(s, BlockLen+7)
	if err != nil {
		t.Fatalf("ConsumeBatches limited: %v", err)
	}
	if limited.Instructions != BlockLen+7 {
		t.Fatalf("limited Instructions = %d, want %d", limited.Instructions, BlockLen+7)
	}

	// A damaged capture yields its clean prefix, erroring only when the
	// limit reaches past it.
	damaged := damagedStore(t, recs)
	var clean int64
	for bi := 0; bi < damaged.NumBlocks(); bi++ {
		if _, err := damaged.BlockAt(bi); err != nil {
			break
		}
		clean += BlockLen
	}
	if clean >= rep.Len() || clean == 0 {
		t.Fatalf("damaged capture clean length %d of %d", clean, rep.Len())
	}
	if _, err := NewStats().ConsumeBatches(damaged, clean); err != nil {
		t.Fatalf("ConsumeBatches within clean prefix: %v", err)
	}
	if _, err := NewStats().ConsumeBatches(damaged, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ConsumeBatches past clean prefix: err=%v, want ErrCorrupt", err)
	}
}

// sumStats projects the comparable scalar fields.
func sumStats(s *Stats) *struct {
	I, B, C, U, Ca, R, IJ int64
	Op                    [NumOpClasses]int64
} {
	return &struct {
		I, B, C, U, Ca, R, IJ int64
		Op                    [NumOpClasses]int64
	}{s.Instructions, s.Branches, s.CondDirect, s.UncondDirect, s.Calls, s.Returns, s.IndJumps, s.OpMix}
}
