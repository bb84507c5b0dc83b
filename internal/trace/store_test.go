package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// flowsEqual reports whether two batches hold the same control-flow
// columns.
func flowsEqual(a, b *Flow) bool {
	return slices.Equal(a.PC, b.PC) && slices.Equal(a.Target, b.Target) && slices.Equal(a.Meta, b.Meta)
}

// walkFlows reads every block of bs through read, stopping at the first
// block it cannot read: the control-flow columns before it and its error.
func walkFlows(bs BlockSource, read func(int) (*Flow, error)) ([]*Flow, error) {
	var flows []*Flow
	for bi := 0; bi < bs.NumBlocks(); bi++ {
		f, err := read(bi)
		if err != nil {
			return flows, err
		}
		flows = append(flows, f)
	}
	return flows, nil
}

// assertFlowsAlike opens img twice and reads one store through FlowAt,
// the other through BlockAt: both must read the same control-flow columns
// from the same blocks, and stop at the same block with the same error —
// none, or an ErrCorrupt of the same text. A store that fails to open
// reads nothing.
func assertFlowsAlike(t *testing.T, img []byte) {
	t.Helper()
	fs, err := OpenStore(bytes.NewReader(img), int64(len(img)), 0)
	if err != nil {
		return
	}
	bs := openStore(t, img, 0)
	flows, fErr := walkFlows(fs, fs.FlowAt)
	blocks, bErr := walkFlows(bs, func(i int) (*Flow, error) {
		b, err := bs.BlockAt(i)
		if err != nil {
			return nil, err
		}
		return &b.Flow, nil
	})
	if len(flows) != len(blocks) {
		t.Fatalf("FlowAt read %d blocks (err %v), BlockAt %d (err %v)", len(flows), fErr, len(blocks), bErr)
	}
	for bi := range flows {
		if !flowsEqual(flows[bi], blocks[bi]) {
			t.Fatalf("block %d: FlowAt's columns differ from BlockAt's", bi)
		}
	}
	switch {
	case fErr == nil && bErr == nil:
	case fErr == nil || bErr == nil || !errors.Is(fErr, ErrCorrupt) || fErr.Error() != bErr.Error():
		t.Fatalf("FlowAt stopped with %v, BlockAt with %v", fErr, bErr)
	}
}

// TestFlowAtMatchesBlockAt pins FlowAt to BlockAt's control-flow columns,
// block for block: on an in-memory capture, FlowAt is the block's own;
// on raw and compressed stores read through FlowAt alone, every group
// decodes in flow form, to the same columns. It reads random records and
// a looping program's, whose PCs mostly repeat their last target and
// address.
func TestFlowAtMatchesBlockAt(t *testing.T) {
	const n = 2*BlockLen + 2*BlockLen + BlockLen/2 + 17
	for _, data := range []struct {
		name string
		recs []Record
	}{{"random", randomRecords(n, 23)}, {"looping", loopingRecords(n, 23)}} {
		rep := Capture(NewSliceSource(data.recs))
		for bi := 0; bi < rep.NumBlocks(); bi++ {
			f, _ := rep.FlowAt(bi)
			b, _ := rep.BlockAt(bi)
			if f != &b.Flow {
				t.Fatalf("%s: Replay block %d: FlowAt is not the block's Flow", data.name, bi)
			}
		}
		for _, compress := range []bool{false, true} {
			img := writeStore(t, data.recs, StoreOptions{Compress: compress, GroupRecords: 2 * BlockLen})
			s := openStore(t, img, 0)
			if s.NumBlocks() != rep.NumBlocks() {
				t.Fatalf("%s, compress=%v: NumBlocks = %d, want %d", data.name, compress, s.NumBlocks(), rep.NumBlocks())
			}
			for bi := 0; bi < rep.NumBlocks(); bi++ {
				got, err := s.FlowAt(bi)
				if err != nil {
					t.Fatalf("%s, compress=%v: FlowAt(%d): %v", data.name, compress, bi, err)
				}
				want, _ := rep.BlockAt(bi)
				if !flowsEqual(got, &want.Flow) {
					t.Fatalf("%s, compress=%v: block %d: FlowAt's columns differ from the capture's", data.name, compress, bi)
				}
			}
			for gi, d := range s.slots {
				if d == nil || d.full {
					t.Fatalf("%s, compress=%v: group %d not held in flow form after FlowAt reads", data.name, compress, gi)
				}
			}
		}
	}
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
			assertFlowsAlike(t, damaged)
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

// TestStoreResidentPrefix pins the slot policy on one reader: the
// groups the budget holds stay decoded after a pass, and every later
// group is decoded again by the next pass.
func TestStoreResidentPrefix(t *testing.T) {
	recs := randomRecords(4*BlockLen, 9)
	img := writeStore(t, recs, StoreOptions{GroupRecords: BlockLen})
	s := openStore(t, img, 2*BlockLen*storeBytesPerRecord)
	pass := func() CacheStats {
		before := s.CacheStats()
		for bi := 0; bi < s.NumBlocks(); bi++ {
			if _, err := s.BlockAt(bi); err != nil {
				t.Fatalf("BlockAt(%d): %v", bi, err)
			}
		}
		after := s.CacheStats()
		return CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	}
	if got := pass(); got != (CacheStats{Misses: 4}) {
		t.Fatalf("first pass %+v, want 4 misses", got)
	}
	if got := pass(); got != (CacheStats{Hits: 2, Misses: 2}) {
		t.Fatalf("second pass %+v, want 2 hits on the resident groups and 2 misses", got)
	}
}

// heldBytes is the decoded size of the groups s's slots hold, each in the
// form it was decoded in. Every decode must be done.
func heldBytes(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for gi, d := range s.slots {
		switch {
		case d == nil:
		case d.full:
			n += int64(s.groups[gi].recs) * storeBytesPerRecord
		default:
			n += int64(s.groups[gi].recs) * flowBytesPerRecord
		}
	}
	return n
}

// TestStoreFlowForm pins the slot policy across the two decode forms at
// the default budget's proportions, scaled down sixteenfold: one-block
// groups under a sixteenth of the default budget. A capture of 46 groups,
// as a 3M-record one is of default groups, fits the budget in flow form
// (60 groups would) but not in full (36 groups do). Four accuracy passes
// (FlowAt) decode each group once: 46 decodes, where four BlockAt passes
// make 76. A later BlockAt pass decodes every group in full, in place of
// its flow form, and shrinks the resident prefix to 36 groups; after every
// read the held decodes take no more than the budget. It stores random
// records and a looping program's, whose PCs mostly repeat their last
// target and address.
func TestStoreFlowForm(t *testing.T) {
	const groups = 46
	budget := int64(storeDefaultBudget / (storeGroupRecords / BlockLen))
	if flowGroups, fullGroups := budget/(BlockLen*flowBytesPerRecord), budget/(BlockLen*storeBytesPerRecord); flowGroups != 60 || fullGroups != 36 {
		t.Fatalf("budget holds %d flow-form and %d full groups, want 60 and 36", flowGroups, fullGroups)
	}
	for _, data := range []struct {
		name string
		recs []Record
	}{{"random", randomRecords(groups*BlockLen, 43)}, {"looping", loopingRecords(groups*BlockLen, 43)}} {
		t.Run(data.name, func(t *testing.T) {
			img := writeStore(t, data.recs, StoreOptions{Compress: true, GroupRecords: BlockLen})
			s := openStore(t, img, budget)
			if s.flowResident != groups || s.resident != 36 {
				t.Fatalf("%d groups resident in flow form and %d in full, want %d and 36", s.flowResident, s.resident, groups)
			}
			flowAt := func(i int) error { _, err := s.FlowAt(i); return err }
			blockAt := func(i int) error { _, err := s.BlockAt(i); return err }
			pass := func(read func(int) error) CacheStats {
				t.Helper()
				before := s.CacheStats()
				for bi := 0; bi < s.NumBlocks(); bi++ {
					if err := read(bi); err != nil {
						t.Fatalf("block %d: %v", bi, err)
					}
					if held := heldBytes(s); held > budget {
						t.Fatalf("block %d: %d bytes of decodes held, budget %d", bi, held, budget)
					}
				}
				after := s.CacheStats()
				return CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
			}
			var flow CacheStats
			for p := 0; p < 4; p++ {
				st := pass(flowAt)
				flow.Hits += st.Hits
				flow.Misses += st.Misses
			}
			if flow != (CacheStats{Hits: 3 * groups, Misses: groups}) {
				t.Fatalf("four FlowAt passes %+v, want %d decodes and %d hits", flow, groups, 3*groups)
			}
			if got := pass(blockAt); got != (CacheStats{Misses: groups}) {
				t.Fatalf("BlockAt pass after the FlowAt passes %+v, want %d full decodes", got, groups)
			}
			for gi, d := range s.slots {
				if held := d != nil; held != (gi < 36) || held && !d.full {
					t.Fatalf("group %d held=%v after the BlockAt pass, want it held in full iff in the 36-group prefix", gi, held)
				}
			}
			if got := pass(blockAt); got != (CacheStats{Hits: 36, Misses: groups - 36}) {
				t.Fatalf("second BlockAt pass %+v, want 36 hits and %d decodes", got, groups-36)
			}
			if got := pass(flowAt); got != (CacheStats{Hits: 36, Misses: groups - 36}) {
				t.Fatalf("FlowAt pass over the full prefix %+v, want 36 hits and %d decodes", got, groups-36)
			}

			full := openStore(t, img, budget)
			for p := 0; p < 4; p++ {
				for bi := 0; bi < full.NumBlocks(); bi++ {
					if _, err := full.BlockAt(bi); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := full.CacheStats().Misses; got != groups+3*(groups-36) {
				t.Fatalf("four BlockAt passes made %d decodes, want %d", got, groups+3*(groups-36))
			}
		})
	}
}

// gatedReader counts reads by offset, reports each on started as it
// begins, and holds a read at gateOff until gate is closed.
type gatedReader struct {
	io.ReaderAt
	gateOff int64
	gate    chan struct{}
	started chan int64
	mu      sync.Mutex
	reads   map[int64]int
}

func (g *gatedReader) ReadAt(p []byte, off int64) (int, error) {
	g.mu.Lock()
	g.reads[off]++
	g.mu.Unlock()
	if g.started != nil {
		g.started <- off
	}
	if off == g.gateOff {
		<-g.gate
	}
	return g.ReaderAt.ReadAt(p, off)
}

func (g *gatedReader) readsAt(off int64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reads[off]
}

// TestStoreSharedDecode: a reader that finds its group being decoded
// shares that decode, and decodes the next group while it waits.
func TestStoreSharedDecode(t *testing.T) {
	recs := randomRecords(3*BlockLen, 31)
	img := writeStore(t, recs, StoreOptions{Compress: true, GroupRecords: BlockLen})
	gr := &gatedReader{ReaderAt: bytes.NewReader(img), gateOff: -1, reads: map[int64]int{}}
	s, err := OpenStore(gr, int64(len(img)), 0)
	if err != nil {
		t.Fatal(err)
	}
	g0, g1 := s.groups[0].off, s.groups[1].off
	gr.gateOff, gr.gate, gr.started = g0, make(chan struct{}), make(chan int64, 8)

	var wg sync.WaitGroup
	var blocks [2]*Block
	var errs [2]error
	for k := range blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blocks[k], errs[k] = s.BlockAt(0)
		}()
		// The first reader is held inside group 0's read; the second must
		// find it in flight and read group 1 instead of idling.
		want := []int64{g0, g1}[k]
		if off := <-gr.started; off != want {
			t.Fatalf("reader %d read at offset %d, want %d", k, off, want)
		}
	}
	close(gr.gate)
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", k, err)
		}
	}
	if blocks[0] != blocks[1] {
		t.Fatal("the two readers of group 0 got different decodes")
	}
	if _, err := s.BlockAt(1); err != nil {
		t.Fatal(err)
	}
	if r0, r1 := gr.readsAt(g0), gr.readsAt(g1); r0 != 1 || r1 != 1 {
		t.Fatalf("group reads %d and %d, want one each", r0, r1)
	}
	if st := s.CacheStats(); st != (CacheStats{Hits: 2, Misses: 2}) {
		t.Fatalf("stats %+v, want 2 decodes shared by 2 hits", st)
	}
}

// TestStoreCorruptGroupNeverKept: a damaged resident group fails every
// reader and every retry, and the groups before it still read.
func TestStoreCorruptGroupNeverKept(t *testing.T) {
	recs := randomRecords(4*BlockLen, 37)
	img := writeStore(t, recs, StoreOptions{GroupRecords: BlockLen})
	img[openStore(t, img, 0).groups[2].off+100] ^= 0x10
	s := openStore(t, img, 0)
	if s.resident != len(s.groups) {
		t.Fatalf("%d of %d groups resident; the test needs all", s.resident, len(s.groups))
	}

	errs := make([]error, 8)
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[k] = s.BlockAt(2)
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("reader %d: err=%v, want ErrCorrupt", k, err)
		}
	}
	misses := s.CacheStats().Misses
	if _, err := s.BlockAt(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("retry: err=%v, want ErrCorrupt", err)
	}
	if got := s.CacheStats().Misses; got != misses+1 {
		t.Fatalf("retry made %d decodes, want 1: a failed decode was kept", got-misses)
	}
	if _, err := s.FlowAt(2); !errors.Is(err, ErrCorrupt) || err.Error() != errs[0].Error() {
		t.Fatalf("FlowAt: err=%v, want BlockAt's %v", err, errs[0])
	}
	for bi := 0; bi < 2; bi++ {
		blk, err := s.BlockAt(bi)
		if err != nil {
			t.Fatalf("BlockAt(%d) before the damage: %v", bi, err)
		}
		var r Record
		blk.Record(0, &r)
		if r != recs[bi*BlockLen] {
			t.Fatalf("block %d: got %+v, want %+v", bi, r, recs[bi*BlockLen])
		}
	}
}

// TestStoreConcurrentPasses runs 8 readers × 3 forward passes over a
// store whose capture exceeds its budget. Under -race this pins that
// shared decodes and dropped slots never hand a reader a wrong or reused
// block, and afterwards only the resident slots may hold a group.
func TestStoreConcurrentPasses(t *testing.T) {
	const groupRecs = 2 * BlockLen
	recs := randomRecords(10*groupRecs+BlockLen/3, 41)
	rep := Capture(NewSliceSource(recs))
	s := openStore(t, writeStore(t, recs, StoreOptions{Compress: true, GroupRecords: groupRecs}), 4*groupRecs*storeBytesPerRecord)
	if s.resident != 4 || len(s.groups) != 11 {
		t.Fatalf("%d of %d groups resident, want 4 of 11", s.resident, len(s.groups))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for bi := 0; bi < s.NumBlocks(); bi++ {
					got, err := s.BlockAt(bi)
					if err != nil {
						t.Errorf("reader %d: BlockAt(%d): %v", g, bi, err)
						return
					}
					want, _ := rep.BlockAt(bi)
					if !slices.Equal(got.PC, want.PC) || !slices.Equal(got.Target, want.Target) ||
						!slices.Equal(got.Addr, want.Addr) || !slices.Equal(got.Meta, want.Meta) ||
						!slices.Equal(got.Dst, want.Dst) || !slices.Equal(got.Src1, want.Src1) ||
						!slices.Equal(got.Src2, want.Src2) {
						t.Errorf("reader %d pass %d: block %d differs from the in-memory capture", g, pass, bi)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for gi, d := range s.slots {
		if held := d != nil; held != (gi < s.resident) {
			t.Errorf("group %d held=%v after the passes, want %v", gi, held, gi < s.resident)
		}
	}
}

// TestStoreConcurrentMixedPasses is TestStoreConcurrentPasses with half
// the readers reading through FlowAt: under -race, flow-form and full
// decodes of one group that replace each other in its slot never hand a
// reader wrong columns, and afterwards only the resident slots, sized for
// full decodes, may hold a group.
func TestStoreConcurrentMixedPasses(t *testing.T) {
	const groupRecs = 2 * BlockLen
	recs := randomRecords(10*groupRecs+BlockLen/3, 47)
	rep := Capture(NewSliceSource(recs))
	budget := int64(4 * groupRecs * storeBytesPerRecord)
	s := openStore(t, writeStore(t, recs, StoreOptions{Compress: true, GroupRecords: groupRecs}), budget)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for bi := 0; bi < s.NumBlocks(); bi++ {
					want, _ := rep.BlockAt(bi)
					var got *Flow
					var err error
					if g%2 == 0 {
						got, err = s.FlowAt(bi)
					} else {
						var blk *Block
						if blk, err = s.BlockAt(bi); err == nil {
							got = &blk.Flow
							if !slices.Equal(blk.Addr, want.Addr) || !slices.Equal(blk.Dst, want.Dst) ||
								!slices.Equal(blk.Src1, want.Src1) || !slices.Equal(blk.Src2, want.Src2) {
								t.Errorf("reader %d pass %d: block %d differs from the in-memory capture", g, pass, bi)
								return
							}
						}
					}
					if err != nil {
						t.Errorf("reader %d: block %d: %v", g, bi, err)
						return
					}
					if !flowsEqual(got, &want.Flow) {
						t.Errorf("reader %d pass %d: block %d's control-flow columns differ from the in-memory capture", g, pass, bi)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for gi, d := range s.slots {
		if held := d != nil; held && gi >= s.resident {
			t.Errorf("group %d held after the passes, past the %d resident groups", gi, s.resident)
		}
	}
	if held := heldBytes(s); held > budget {
		t.Errorf("%d bytes of decodes held after the passes, budget %d", held, budget)
	}
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
	flows, err := OpenStoreFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer flows.Close()
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
	if _, ferr := flows.FlowAt(0); ferr != nil {
		t.Fatalf("FlowAt(0) before the cut: %v", ferr)
	}
	if _, ferr := flows.FlowAt(flows.NumBlocks() - 1); ferr == nil || ferr.Error() != err.Error() {
		t.Fatalf("FlowAt(last) after truncation: err=%v, want BlockAt's %v", ferr, err)
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
	if _, err := fs.FlowAt(0); !errors.Is(err, errDisk) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("FlowAt over a failing reader: err=%v, want the read error unchanged", err)
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

// BenchmarkStoreRescan measures the traffic a spilled capture sees from
// its cells, gangs and pipeline passes: each iteration opens a compressed store
// whose decoded groups take ~1.3× the store's budget, and every reader
// reads all its blocks four times over: in full (readers=N, the timing
// passes' BlockAt) or their control-flow columns (flow-readers=N, the
// accuracy passes' FlowAt), whose flow-form decodes the budget holds
// whole. ns/record and B/record count each record once per reader and
// pass.
func BenchmarkStoreRescan(b *testing.B) {
	const groups, budgetGroups, passes = 13, 10, 4
	img := writeStore(b, randomRecords(groups*storeGroupRecords, 7), StoreOptions{Compress: true})
	budget := int64(budgetGroups * storeGroupRecords * storeBytesPerRecord)
	for _, flow := range []bool{false, true} {
		for _, readers := range []int{1, 2} {
			name := fmt.Sprintf("readers=%d", readers)
			if flow {
				name = "flow-" + name
			}
			b.Run(name, func(b *testing.B) {
				rescan(b, img, budget, readers, passes, flow)
			})
		}
	}
}

// rescan is one BenchmarkStoreRescan case: readers goroutines each read
// every block of a store of img passes times, through FlowAt when flow is
// set, else through BlockAt.
func rescan(b *testing.B, img []byte, budget int64, readers, passes int, flow bool) {
	var sum atomic.Uint64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	var records float64
	for i := 0; i < b.N; i++ {
		s := openStore(b, img, budget)
		records += float64(readers*passes) * float64(s.Len())
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var x uint64
				for p := 0; p < passes; p++ {
					for bi := 0; bi < s.NumBlocks(); bi++ {
						var f *Flow
						var err error
						if flow {
							f, err = s.FlowAt(bi)
						} else {
							var blk *Block
							if blk, err = s.BlockAt(bi); err == nil {
								f = &blk.Flow
							}
						}
						if err != nil {
							b.Error(err)
							return
						}
						for j, pc := range f.PC {
							x += pc ^ uint64(f.Meta[j])
						}
					}
				}
				sum.Add(x)
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/records, "B/record")
}
