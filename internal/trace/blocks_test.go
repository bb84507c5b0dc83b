package trace_test

// Tests for the batched block form: the Blocks a fresh capture builds
// must be identical to what the TCSTORE1 reader decodes from a stored
// copy of the same records, and the Meta accessors must agree with full
// Record materialization. The differential tests pin the two ways a
// simulation reads a capture against each other: the batched walk over
// BlockAt the kernels use and the record Cursor every Open returns must
// yield the same records in order, and on a damaged store the same
// ErrCorrupt after the same cleanly read prefix.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestCaptureBlocksMatchDecode pins the capture-time block builder against
// the store decoder: the blocks a fresh capture carries must be
// record-for-record and block-for-block identical to decoding a TCSTORE1
// image of it afresh, and their control-flow columns to a flow-form
// decode of it.
func TestCaptureBlocksMatchDecode(t *testing.T) {
	for _, budget := range []int64{0, 1, 100, trace.BlockLen, trace.BlockLen + 1, 10_000} {
		t.Run(fmt.Sprint(budget), func(t *testing.T) {
			w, err := workload.ByName("perl")
			if err != nil {
				t.Fatal(err)
			}
			built := trace.Capture(trace.NewLimit(w.Open(), budget))
			var img bytes.Buffer
			if _, err := trace.WriteStore(&img, built.Open(), trace.StoreOptions{GroupRecords: trace.BlockLen}); err != nil {
				t.Fatal(err)
			}
			decoded, err := trace.OpenStore(bytes.NewReader(img.Bytes()), int64(img.Len()), 0)
			if err != nil {
				t.Fatal(err)
			}
			flows, err := trace.OpenStore(bytes.NewReader(img.Bytes()), int64(img.Len()), 0)
			if err != nil {
				t.Fatal(err)
			}
			if built.Len() != decoded.Len() {
				t.Fatalf("built %d records, decoded %d", built.Len(), decoded.Len())
			}
			if built.NumBlocks() != decoded.NumBlocks() {
				t.Fatalf("built %d blocks, decoded %d", built.NumBlocks(), decoded.NumBlocks())
			}
			var br, dr trace.Record
			for bi := 0; bi < built.NumBlocks(); bi++ {
				b, _ := built.BlockAt(bi)
				d, err := decoded.BlockAt(bi)
				if err != nil {
					t.Fatalf("block %d: %v", bi, err)
				}
				if b.Len() != d.Len() {
					t.Fatalf("block %d: built len %d, decoded len %d", bi, b.Len(), d.Len())
				}
				for i := 0; i < b.Len(); i++ {
					b.Record(i, &br)
					d.Record(i, &dr)
					if br != dr {
						t.Fatalf("block %d record %d differs:\n  built   %+v\n  decoded %+v", bi, i, br, dr)
					}
				}
				f, err := flows.FlowAt(bi)
				if err != nil {
					t.Fatalf("block %d: FlowAt: %v", bi, err)
				}
				if !slices.Equal(f.PC, b.PC) || !slices.Equal(f.Target, b.Target) || !slices.Equal(f.Meta, b.Meta) {
					t.Fatalf("block %d: flow-form decode differs from the built block's control-flow columns", bi)
				}
			}
		})
	}
}

// TestBlocksAccessors pins the Meta byte accessors against full Record
// materialization.
func TestBlocksAccessors(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 4_000))
	var r trace.Record
	for bi := 0; bi < rep.NumBlocks(); bi++ {
		blk, _ := rep.BlockAt(bi)
		for i := 0; i < blk.Len(); i++ {
			blk.Record(i, &r)
			if blk.Class(i) != r.Class || blk.Op(i) != r.Op || blk.Taken(i) != r.Taken {
				t.Fatalf("block %d record %d: accessors (%v,%v,%v) disagree with Record %+v",
					bi, i, blk.Class(i), blk.Op(i), blk.Taken(i), r)
			}
		}
	}
}

// damagedVariant is one damage shape applied to a TCSTORE1 image: img is
// the file's bytes and cut the length that stays readable once the store
// is open (len(img) when the file is not truncated).
type damagedVariant struct {
	name string
	img  []byte
	cut  int64
}

// damagedVariants returns the intact image plus the damage shapes the
// fault-injection harness uses: the file truncated beneath an open store
// at each of cuts, a bit flipped at each of flips, and a footer whose
// record count is one short or one long.
func damagedVariants(img []byte, cuts, flips []int) []damagedVariant {
	n := int64(len(img))
	out := []damagedVariant{{"intact", img, n}}
	for _, cut := range cuts {
		if cut >= 0 && cut <= len(img) {
			out = append(out, damagedVariant{fmt.Sprintf("cut%d", cut), img, int64(cut)})
		}
	}
	for _, at := range flips {
		if at >= 0 && at < len(img) {
			flipped := append([]byte(nil), img...)
			flipped[at] ^= 0x80
			out = append(out, damagedVariant{fmt.Sprintf("flip%d", at), flipped, n})
		}
	}
	for _, c := range []struct {
		name  string
		delta int64
	}{{"countShort", -1}, {"countLong", +1}} {
		recount := append([]byte(nil), img...)
		// The footer's totalRecs field sits 12 bytes into the 44-byte
		// footer.
		total := recount[len(recount)-44+12:]
		binary.LittleEndian.PutUint64(total, uint64(int64(binary.LittleEndian.Uint64(total))+c.delta))
		out = append(out, damagedVariant{c.name, recount, n})
	}
	return out
}

// openTruncated opens img as a store, then shrinks the file beneath it to
// its first cut bytes, as a file truncated after it was opened.
func openTruncated(img []byte, cut int64) (*trace.Store, error) {
	r := &swappableReader{bytes.NewReader(img)}
	s, err := trace.OpenStore(r, int64(len(img)), 0)
	if err != nil {
		return nil, err
	}
	if cut >= 0 && cut < int64(len(img)) {
		r.ReaderAt = bytes.NewReader(img[:cut])
	}
	return s, nil
}

// swappableReader lets a test replace the bytes beneath an open Store.
type swappableReader struct{ io.ReaderAt }

// drainAll drains src, returning the records and the final error.
func drainAll(src trace.Source) ([]trace.Record, error) {
	var recs []trace.Record
	var r trace.Record
	for src.Next(&r) {
		recs = append(recs, r)
	}
	return recs, trace.SourceErr(src)
}

// drainBlocks walks bs block by block through BlockAt, as the batched
// kernels do, stopping at the first block it cannot read.
func drainBlocks(bs trace.BlockSource) ([]trace.Record, error) {
	var recs []trace.Record
	var r trace.Record
	for bi := 0; bi < bs.NumBlocks(); bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			return recs, err
		}
		for i := 0; i < blk.Len(); i++ {
			blk.Record(i, &r)
			recs = append(recs, r)
		}
	}
	return recs, nil
}

// bothDecoders reads img, truncated to cut bytes once open, through a
// record Cursor and through the batched block walk, each over its own
// freshly opened store. A store that fails to open yields no records and
// the open error on both sides.
func bothDecoders(img []byte, cut int64) (cRecs, bRecs []trace.Record, cErr, bErr error) {
	cs, err := openTruncated(img, cut)
	if err != nil {
		return nil, nil, err, err
	}
	bs, err := openTruncated(img, cut)
	if err != nil {
		return nil, nil, err, err
	}
	cRecs, cErr = drainAll(cs.Open())
	bRecs, bErr = drainBlocks(bs)
	return cRecs, bRecs, cErr, bErr
}

// assertSameStream asserts the two decoders produced identical record
// streams and identical errors (both nil, or equal messages both wrapping
// ErrCorrupt).
func assertSameStream(t *testing.T, cRecs, bRecs []trace.Record, cErr, bErr error) {
	t.Helper()
	if len(cRecs) != len(bRecs) {
		t.Fatalf("cursor decoded %d records, batch walk %d", len(cRecs), len(bRecs))
	}
	for i := range cRecs {
		if cRecs[i] != bRecs[i] {
			t.Fatalf("record %d differs:\n  cursor %+v\n  batch  %+v", i, cRecs[i], bRecs[i])
		}
	}
	switch {
	case cErr == nil && bErr == nil:
	case cErr == nil || bErr == nil:
		t.Fatalf("error mismatch: cursor %v, batch walk %v", cErr, bErr)
	default:
		if !errors.Is(cErr, trace.ErrCorrupt) || !errors.Is(bErr, trace.ErrCorrupt) {
			t.Fatalf("errors do not wrap ErrCorrupt: cursor %v, batch walk %v", cErr, bErr)
		}
		if cErr.Error() != bErr.Error() {
			t.Fatalf("error text differs:\n  cursor %v\n  batch  %v", cErr, bErr)
		}
	}
}

// imageRecords is the capture length compressedImage stores: thirty
// one-block groups, so every offset damageCases names lies inside the
// image.
const imageRecords = 120_000

// compressedImage stores the first imageRecords records of workload name
// as a compressed TCSTORE1 image with one block per group, so the image
// spans thirty groups of one to two kilobytes each.
func compressedImage(tb testing.TB, name string) []byte {
	tb.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := trace.WriteStore(&img, trace.NewLimit(w.Open(), imageRecords), trace.StoreOptions{
		Compress:     true,
		GroupRecords: trace.BlockLen,
	}); err != nil {
		tb.Fatal(err)
	}
	return img.Bytes()
}

// damageCases lists, per workload, the byte offsets at which its image is
// cut and bit-flipped: inside the magic, the first group's payload, and
// two points in the group data past a clean prefix of several groups.
var damageCases = []struct {
	workload    string
	cuts, flips []int
}{
	{"gcc", []int{0, 1, 4, 13150, 26299}, []int{0, 5, 16, 13150, 26297}},
	{"go", []int{0, 1, 4, 12652, 25303}, []int{0, 5, 16, 12652, 25301}},
}

// TestBatchCursorMatchesCursor runs the record cursor and the batched
// block walk over real workload captures and their damaged variants,
// requiring identical record streams and identical failure reporting; a
// FlowAt walk must read the same control-flow fields and stop alike.
func TestBatchCursorMatchesCursor(t *testing.T) {
	for _, c := range damageCases {
		img := compressedImage(t, c.workload)
		variants := damagedVariants(img, c.cuts, c.flips)
		if want := 1 + len(c.cuts) + len(c.flips) + 2; len(variants) != want {
			t.Fatalf("%s: %d damage variants of a %d-byte image, want %d: an offset lies past its end",
				c.workload, len(variants), len(img), want)
		}
		for _, v := range variants {
			t.Run(c.workload+"/"+v.name, func(t *testing.T) {
				cRecs, bRecs, cErr, bErr := bothDecoders(v.img, v.cut)
				assertSameStream(t, cRecs, bRecs, cErr, bErr)
				assertFlowWalk(t, v.img, v.cut, bRecs, bErr)
				switch {
				case v.name == "intact" && (cErr != nil || len(cRecs) != imageRecords):
					t.Fatalf("intact image read %d records, err %v; want %d, nil", len(cRecs), cErr, imageRecords)
				case v.name != "intact" && cErr == nil:
					t.Fatalf("damage went undetected: %d records read cleanly", len(cRecs))
				}
			})
		}
	}
}

// assertFlowWalk reads img, truncated to cut bytes once open, through
// FlowAt over a freshly opened store, which must read the control-flow
// fields of recs and stop with err, what the block walk read.
func assertFlowWalk(t *testing.T, img []byte, cut int64, recs []trace.Record, err error) {
	t.Helper()
	s, openErr := openTruncated(img, cut)
	if openErr != nil {
		if err == nil || openErr.Error() != err.Error() {
			t.Fatalf("store failed to open for FlowAt (%v), the block walk's error is %v", openErr, err)
		}
		return
	}
	assertFlowsMatch(t, s, recs, err)
}

// FuzzBlocks feeds arbitrary store images, truncated beneath the open
// store at an arbitrary length, to both decoders and to a FlowAt walk,
// asserting they never panic and never disagree.
func FuzzBlocks(f *testing.F) {
	c := damageCases[1]
	for _, v := range damagedVariants(compressedImage(f, c.workload), c.cuts, c.flips) {
		f.Add(v.img, v.cut)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut int64) {
		cRecs, bRecs, cErr, bErr := bothDecoders(data, cut)
		assertSameStream(t, cRecs, bRecs, cErr, bErr)
		assertFlowWalk(t, data, cut, bRecs, bErr)
	})
}
