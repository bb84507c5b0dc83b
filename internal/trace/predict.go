package trace

// Predictive group codec: a compressed TCSTORE1 group stores each record
// as one flag byte plus only the fields its predictors miss, then flates
// the result — the VPC3 trace-compression idea (Burtscher, SIGMETRICS
// 2004). Captures are almost entirely predictable: the PC is the previous
// record's next PC, an instruction's class, op and registers never change,
// and most addresses repeat or stride. So the flag bytes carry nearly all
// of a group, and flate folds their loop-shaped runs.
//
// The predictors are the previous record's next PC and a direct-mapped
// table indexed by PC. An entry holds, for the PC it was claimed by, the
// static fields (class, op, Dst, Src1, Src2), the last nonzero target, and
// the last nonzero address with the stride between the last two. The
// table resets at every group, so each group decodes alone and in any
// order.
//
// The encoder and the decoder apply one update rule per record:
//
//   - an entry whose tag is not the record's PC is claimed: zeroed and
//     tagged, and the record's static fields must be coded;
//   - coded static fields replace the entry's;
//   - a nonzero target replaces the entry's target;
//   - a nonzero address A sets stride = A - addr, then addr = A.
//
// Missed fields are zigzag varints of the value minus its prediction (the
// predicted next PC, the entry's target, the entry's address), except the
// static fields, which are four bytes: the Meta byte without its taken
// bit, Dst, Src1, Src2.

import (
	"encoding/binary"
	"io"
)

// Flag byte layout: bits 0-1 the address mode, bits 2-3 the target mode,
// bit 4 a coded static-field miss, bit 5 a coded PC miss, bit 6 reserved
// (zero), bit 7 the taken bit (MetaTaken).
const (
	predAddrMask   = 0x03
	predTargetMask = 0x0c
	predStaticMiss = 0x10
	predPCMiss     = 0x20
	predReserved   = 0x40
)

// Address modes: zero, the entry's address, the entry's address plus its
// stride, or a coded miss.
const (
	predAddrZero = iota
	predAddrLast
	predAddrStride
	predAddrMiss
)

// Target modes: zero, the entry's target, or a coded miss; 3 is invalid.
const (
	predTargetZero    = 0 << 2
	predTargetLast    = 1 << 2
	predTargetMiss    = 2 << 2
	predTargetInvalid = 3 << 2
)

// The missed-field streams, in payload order after the flag bytes.
const (
	predPCStream = iota
	predStaticStream
	predTargetStream
	predAddrStream
	predStreams
)

// predStreamMax is each stream's most bytes per record, which bounds the
// lengths a group header may claim.
var predStreamMax = [predStreams]int{binary.MaxVarintLen64, 4, binary.MaxVarintLen64, binary.MaxVarintLen64}

// predHeaderLen is the uncompressed group header: the record count and
// the four stream lengths.
const predHeaderLen = 4 + 4*predStreams

// predTableBits sizes the per-group table: at 4096 entries no workload's
// file shrinks with a larger table, while at 1024 gcc's grows by 29%.
const (
	predTableBits = 12
	predTableMask = 1<<predTableBits - 1
)

// predEntry is one table entry: the fields last seen at PC pc.
type predEntry struct {
	pc, target, addr, stride uint64
	meta, dst, src1, src2    uint8
	valid                    bool
}

type predTable [1 << predTableBits]predEntry

func (t *predTable) entry(pc uint64) *predEntry { return &t[pc>>2&predTableMask] }

func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(v uint64) uint64 { return v>>1 ^ -(v & 1) }

// predEncoder codes one group's records at a time.
type predEncoder struct {
	tab     predTable
	next    uint64
	flags   []byte
	streams [predStreams][]byte
}

// reset starts a new group.
func (pe *predEncoder) reset() {
	clear(pe.tab[:])
	pe.next = 0
	pe.flags = pe.flags[:0]
	for i := range pe.streams {
		pe.streams[i] = pe.streams[i][:0]
	}
}

// add codes r.
func (pe *predEncoder) add(r *Record) {
	var f uint8
	if r.PC != pe.next {
		f |= predPCMiss
		pe.streams[predPCStream] = binary.AppendUvarint(pe.streams[predPCStream], zigzag(r.PC-pe.next))
	}
	e := pe.tab.entry(r.PC)
	hit := e.valid && e.pc == r.PC
	if !hit {
		*e = predEntry{pc: r.PC, valid: true}
	}
	meta := uint8(r.Class) | uint8(r.Op)<<MetaOpShift
	if !hit || e.meta != meta || e.dst != r.Dst || e.src1 != r.Src1 || e.src2 != r.Src2 {
		f |= predStaticMiss
		pe.streams[predStaticStream] = append(pe.streams[predStaticStream], meta, r.Dst, r.Src1, r.Src2)
		e.meta, e.dst, e.src1, e.src2 = meta, r.Dst, r.Src1, r.Src2
	}
	// A claimed entry's target and address are zero, so the last and
	// stride modes below are only ever chosen on a hit.
	switch {
	case r.Target == 0:
	case r.Target == e.target:
		f |= predTargetLast
	default:
		f |= predTargetMiss
		pe.streams[predTargetStream] = binary.AppendUvarint(pe.streams[predTargetStream], zigzag(r.Target-e.target))
		e.target = r.Target
	}
	switch {
	case r.Addr == 0:
	case r.Addr == e.addr:
		f |= predAddrLast
	case r.Addr == e.addr+e.stride:
		f |= predAddrStride
	default:
		f |= predAddrMiss
		pe.streams[predAddrStream] = binary.AppendUvarint(pe.streams[predAddrStream], zigzag(r.Addr-e.addr))
	}
	if r.Addr != 0 {
		e.stride = r.Addr - e.addr
		e.addr = r.Addr
	}
	if r.Taken {
		f |= MetaTaken
	}
	pe.flags = append(pe.flags, f)
	pe.next = r.NextPC()
}

// header appends the group header for the records added since reset.
func (pe *predEncoder) header(h []byte) []byte {
	h = binary.LittleEndian.AppendUint32(h, uint32(len(pe.flags)))
	for _, s := range pe.streams {
		h = binary.LittleEndian.AppendUint32(h, uint32(len(s)))
	}
	return h
}

// writeBody writes the flag bytes and the missed-field streams to w.
func (pe *predEncoder) writeBody(w io.Writer) error {
	if _, err := w.Write(pe.flags); err != nil {
		return err
	}
	for _, s := range pe.streams {
		if _, err := w.Write(s); err != nil {
			return err
		}
	}
	return nil
}

// delta reads one zigzag varint off the front of the stream *b.
func delta(b *[]byte) (uint64, bool) {
	v, n := binary.Uvarint(*b)
	if n <= 0 {
		return 0, false
	}
	*b = (*b)[n:]
	return unzigzag(v), true
}

// decodePredicted decodes group gi's inflated body (flag bytes, then the
// missed-field streams of the given lengths) into blocks, whose lengths
// sum to the group's record count: every column when full is set, else
// the Flow columns, though it still reads and checks every stream. Any
// flag the table cannot serve, any stream that ends early or has bytes
// left over, and any invalid flag or meta byte is an ErrCorrupt.
func decodePredicted(gi int, tab *predTable, body []byte, lens [predStreams]int, blocks []Block, full bool) error {
	clear(tab[:])
	recs := len(body)
	for _, n := range lens {
		recs -= n
	}
	flags := body[:recs]
	var ms [predStreams][]byte
	rest := body[recs:]
	for k, n := range lens {
		ms[k], rest = rest[:n], rest[n:]
	}
	pcs, statics, targets, addrs := &ms[predPCStream], &ms[predStaticStream], &ms[predTargetStream], &ms[predAddrStream]
	var next uint64
	i := 0
	for bi := range blocks {
		blk := &blocks[bi]
		for j := range blk.Meta {
			f := flags[i]
			if f&predReserved != 0 || f&predTargetMask == predTargetInvalid {
				return corruptf("store group %d record %d: invalid flag byte %#x", gi, i, f)
			}
			pc := next
			if f&predPCMiss != 0 {
				d, ok := delta(pcs)
				if !ok {
					return corruptf("store group %d record %d: PC misses end early", gi, i)
				}
				pc += d
			}
			e := tab.entry(pc)
			if !e.valid || e.pc != pc {
				if a := f & predAddrMask; f&predStaticMiss == 0 || f&predTargetMask == predTargetLast || a == predAddrLast || a == predAddrStride {
					return corruptf("store group %d record %d: flag %#x predicts fields the table holds no entry for at PC %#x", gi, i, f, pc)
				}
				*e = predEntry{pc: pc, valid: true}
			}
			if f&predStaticMiss != 0 {
				s := *statics
				if len(s) < 4 {
					return corruptf("store group %d record %d: static misses end early", gi, i)
				}
				if mb := s[0]; mb&MetaTaken != 0 || int(mb&MetaClassMask) >= numClasses || int(mb>>MetaOpShift&MetaOpMask) >= NumOpClasses {
					return corruptf("store group %d record %d: invalid meta byte %#x", gi, i, mb)
				}
				e.meta, e.dst, e.src1, e.src2 = s[0], s[1], s[2], s[3]
				*statics = s[4:]
			}
			var tgt uint64
			switch f & predTargetMask {
			case predTargetLast:
				tgt = e.target
			case predTargetMiss:
				d, ok := delta(targets)
				if !ok {
					return corruptf("store group %d record %d: target misses end early", gi, i)
				}
				tgt = e.target + d
				if tgt != 0 {
					e.target = tgt
				}
			}
			var addr uint64
			switch f & predAddrMask {
			case predAddrLast:
				addr = e.addr
			case predAddrStride:
				addr = e.addr + e.stride
			case predAddrMiss:
				d, ok := delta(addrs)
				if !ok {
					return corruptf("store group %d record %d: address misses end early", gi, i)
				}
				addr = e.addr + d
			}
			if addr != 0 {
				e.stride = addr - e.addr
				e.addr = addr
			}
			blk.PC[j], blk.Target[j] = pc, tgt
			blk.Meta[j] = e.meta | f&MetaTaken
			if full {
				blk.Addr[j] = addr
				blk.Dst[j], blk.Src1[j], blk.Src2[j] = e.dst, e.src1, e.src2
			}
			if f&MetaTaken != 0 {
				next = tgt
			} else {
				next = pc + 4
			}
			i++
		}
	}
	for k, b := range ms {
		if len(b) != 0 {
			return corruptf("store group %d: %d bytes left over in missed-field stream %d", gi, len(b), k)
		}
	}
	return nil
}
