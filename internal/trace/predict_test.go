package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

// predImage assembles a one-group compressed store of recs records whose
// payload is the given header stream lengths and flated body, with every
// CRC valid, so only the codec's own checks can reject it.
func predImage(t *testing.T, recs uint32, lens [predStreams]uint32, body []byte) []byte {
	t.Helper()
	payload := binary.LittleEndian.AppendUint32(nil, recs)
	for _, n := range lens {
		payload = binary.LittleEndian.AppendUint32(payload, n)
	}
	buf := bytes.NewBuffer(payload)
	zw, err := flate.NewWriter(buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	payload = buf.Bytes()

	img := []byte(storeMagic)
	off := len(img)
	img = append(img, payload...)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(payload))
	indexOff := len(img)
	idx := binary.LittleEndian.AppendUint64(nil, uint64(off))
	idx = binary.LittleEndian.AppendUint32(idx, uint32(len(payload)))
	idx = binary.LittleEndian.AppendUint32(idx, recs)
	img = append(img, idx...)
	img = binary.LittleEndian.AppendUint64(img, uint64(indexOff))
	img = binary.LittleEndian.AppendUint32(img, 1)
	img = binary.LittleEndian.AppendUint64(img, uint64(recs))
	img = binary.LittleEndian.AppendUint32(img, storeFlagPredict)
	img = binary.LittleEndian.AppendUint32(img, BlockLen)
	img = binary.LittleEndian.AppendUint32(img, BlockLen)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(idx))
	return append(img, storeEndMagic...)
}

// predBody joins flag bytes and the four missed-field streams into a body
// and its header lengths.
func predBody(flags []byte, streams [predStreams][]byte) ([predStreams]uint32, []byte) {
	var lens [predStreams]uint32
	body := append([]byte(nil), flags...)
	for k, s := range streams {
		lens[k] = uint32(len(s))
		body = append(body, s...)
	}
	return lens, body
}

func varint(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, zigzag(v))
	}
	return b
}

// TestPredictedHandBuilt decodes hand-built compressed groups: a valid one
// reads back its records, and each malformed one fails its group with an
// ErrCorrupt naming the fault. FlowAt, which decodes only the control-flow
// columns, reads the same and fails alike, also where only the address
// or register fields are at fault.
func TestPredictedHandBuilt(t *testing.T) {
	const pc = 0x1000
	// load is a claimed-entry record: PC and static fields coded, its
	// address a coded miss.
	load := byte(predPCMiss | predStaticMiss | predAddrMiss)
	loadStatic := []byte{uint8(ClassOther) | uint8(OpLoad)<<MetaOpShift, 3, 1, 0}
	// Then the same PC twice more (each a PC miss of -4 from the
	// fall-through): address 0x108 a coded miss that sets the stride to 8,
	// then 0x110, last plus stride.
	back := ^uint64(3)
	valid := [predStreams][]byte{varint(pc, back, back), loadStatic, nil, varint(0x100, 8)}
	loop := byte(predPCMiss | predAddrMiss)
	stride := byte(predPCMiss | predAddrStride)
	lens, body := predBody([]byte{load, loop, stride}, valid)
	s := openStore(t, predImage(t, 3, lens, body), 0)
	got := Collect(s.Open())
	want := []Record{
		{PC: pc, Addr: 0x100, Op: OpLoad, Dst: 3, Src1: 1},
		{PC: pc, Addr: 0x108, Op: OpLoad, Dst: 3, Src1: 1},
		{PC: pc, Addr: 0x110, Op: OpLoad, Dst: 3, Src1: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("valid group decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("valid group record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	assertFlowsAlike(t, predImage(t, 3, lens, body))

	with := func(k int, b []byte) [predStreams][]byte {
		st := valid
		st[k] = b
		return st
	}
	for _, tc := range []struct {
		name    string
		flags   []byte
		streams [predStreams][]byte
		lens    func(*[predStreams]uint32)
		want    string
	}{
		{"static predicted with no entry", []byte{predPCMiss | predAddrMiss}, with(predStaticStream, nil), nil, "no entry"},
		{"target predicted with no entry", []byte{load | predTargetLast}, valid, nil, "no entry"},
		{"address predicted with no entry", []byte{predPCMiss | predStaticMiss | predAddrLast}, with(predAddrStream, nil), nil, "no entry"},
		{"stride predicted with no entry", []byte{predPCMiss | predStaticMiss | predAddrStride}, with(predAddrStream, nil), nil, "no entry"},
		{"PC misses end early", []byte{load}, with(predPCStream, []byte{0x80}), nil, "PC misses end early"},
		{"static misses end early", []byte{load}, with(predStaticStream, loadStatic[:3]), nil, "static misses end early"},
		{"target misses end early", []byte{load | predTargetMiss}, valid, nil, "target misses end early"},
		{"address misses end early", []byte{load, loop, loop}, valid, nil, "address misses end early"},
		{"address misses left over", []byte{load, loop, stride}, with(predAddrStream, varint(0x100, 8, 8)), nil, "left over in missed-field stream 3"},
		{"bytes left over", []byte{load}, valid, nil, "left over"},
		{"reserved flag bit", []byte{load | predReserved}, valid, nil, "invalid flag byte"},
		{"invalid target mode", []byte{load | predTargetInvalid}, valid, nil, "invalid flag byte"},
		{"meta byte with taken bit", []byte{load}, with(predStaticStream, []byte{MetaTaken | uint8(OpLoad)<<MetaOpShift, 3, 1, 0}), nil, "invalid meta byte"},
		{"meta byte with bad class", []byte{load}, with(predStaticStream, []byte{uint8(numClasses), 3, 1, 0}), nil, "invalid meta byte"},
		{"stream length past the group's bound", []byte{load}, valid, func(l *[predStreams]uint32) { l[predAddrStream] = binary.MaxVarintLen64 + 1 }, "at most"},
		{"body shorter than its header says", []byte{load}, valid, func(l *[predStreams]uint32) { l[predAddrStream]++ }, "inflates to"},
		{"body longer than its header says", []byte{load}, valid, func(l *[predStreams]uint32) { l[predAddrStream]-- }, "inflates past"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lens, body := predBody(tc.flags, tc.streams)
			if tc.lens != nil {
				tc.lens(&lens)
			}
			img := predImage(t, uint32(len(tc.flags)), lens, body)
			s := openStore(t, img, 0)
			_, err := s.BlockAt(0)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err=%v, want an ErrCorrupt containing %q", err, tc.want)
			}
			assertFlowsAlike(t, img)
		})
	}
}

// TestStoreRetiredFlateRejected: a file whose footer carries the retired
// flate-column flag fails at open, naming the encoding, and is never
// decoded.
func TestStoreRetiredFlateRejected(t *testing.T) {
	img := writeStore(t, randomRecords(100, 3), StoreOptions{Compress: true})
	flagsAt := len(img) - storeFooterLen + 20
	if got := binary.LittleEndian.Uint32(img[flagsAt:]); got != storeFlagPredict {
		t.Fatalf("footer flags %#x, want %#x", got, storeFlagPredict)
	}
	binary.LittleEndian.PutUint32(img[flagsAt:], storeFlagRetiredFlate)
	_, err := OpenStore(bytes.NewReader(img), int64(len(img)), 0)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "flate-column encoding") {
		t.Fatalf("err=%v, want an ErrCorrupt naming the flate-column encoding", err)
	}
}
