package trace

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Trace memoization: the experiment suite replays each workload's
// deterministic trace many times (once per predictor configuration), and
// re-running the VM for every pass dominates wall-clock. A Recorder
// captures one pass into a compact in-memory buffer — the v2 codec's
// delta/varint record layout, without the file header — and the resulting
// Replay hands out any number of independent, allocation-free Cursors over
// it. The buffer is immutable once Finish returns, so concurrent cursors
// are race-free by construction.

// Recorder encodes records into an in-memory buffer in the v2 record
// layout. Use Capture for the common drain-a-source case.
type Recorder struct {
	buf      []byte
	n        int64
	prevPC   uint64
	prevAddr uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{buf: make([]byte, 0, 1<<16)} }

// Record appends one record.
func (rec *Recorder) Record(r *Record) {
	var flags byte
	if r.Taken {
		flags |= 1
	}
	hasTarget := r.Target != 0
	if hasTarget {
		flags |= 2
	}
	hasAddr := r.Addr != 0
	if hasAddr {
		flags |= 4
	}
	hasRegs := r.Dst != 0 || r.Src1 != 0 || r.Src2 != 0
	if hasRegs {
		flags |= 8
	}
	b := append(rec.buf, flags, byte(r.Class)|byte(r.Op)<<4)
	b = binary.AppendUvarint(b, zigzag(int64(r.PC-rec.prevPC)))
	if hasTarget {
		b = binary.AppendUvarint(b, zigzag(int64(r.Target-r.PC)))
	}
	if hasAddr {
		b = binary.AppendUvarint(b, zigzag(int64(r.Addr-rec.prevAddr)))
		rec.prevAddr = r.Addr
	}
	if hasRegs {
		b = append(b, r.Dst, r.Src1, r.Src2)
	}
	rec.prevPC = r.PC
	rec.buf = b
	rec.n++
}

// Finish seals the recorder into an immutable Replay. The recorder must
// not be used afterwards.
func (rec *Recorder) Finish() *Replay {
	rep := &Replay{buf: rec.buf, n: rec.n}
	rec.buf = nil
	return rep
}

// Capture drains src into a new Replay.
//
// Capture builds only the decoded Blocks form — the representation every
// simulation kernel consumes. The compact v2 buffer is re-encoded lazily
// on first Bytes/Size/Cursor use (encoding is deterministic, so the bytes
// are identical to recording the source directly; replay_test pins this),
// which removes the varint-encode pass from the capture hot path entirely.
func Capture(src Source) *Replay {
	var bb blockBuilder
	var r Record
	for src.Next(&r) {
		bb.add(&r)
	}
	rep := &Replay{fromBlocks: true}
	rep.blocks = bb.finish()
	rep.n = rep.blocks.Len()
	rep.blocksOnce.Do(func() {})
	return rep
}

// Replay is an immutable captured trace. It implements Factory: each Open
// returns an independent cursor positioned at the first record, so one
// capture serves any number of concurrent simulation passes. Blocks
// returns the capture decoded once into batched structure-of-arrays form
// for the hot simulation kernels; the decode is lazy and cached, shared by
// every concurrent caller. A capture-born Replay holds the batched form
// from the start and materializes the compact buffer lazily instead.
type Replay struct {
	buf []byte
	n   int64

	// fromBlocks marks a capture-born Replay: blocks is authoritative and
	// immutable from construction, buf is built on demand under bufOnce.
	// A buffer-born Replay (NewReplayBytes, Recorder.Finish) is the
	// inverse: buf authoritative, blocks decoded under blocksOnce.
	fromBlocks bool
	bufOnce    sync.Once

	blocksOnce sync.Once
	blocks     *Blocks
}

// Len returns the number of records captured.
func (rep *Replay) Len() int64 { return rep.n }

// ensureBuf materializes the compact v2 buffer of a capture-born Replay.
// The Recorder derives every flag bit from Record field values, and the
// batched columns round-trip those values exactly, so re-encoding from
// blocks yields byte-for-byte the buffer a capture-time Recorder would
// have produced.
func (rep *Replay) ensureBuf() {
	rep.bufOnce.Do(func() {
		if !rep.fromBlocks {
			return
		}
		rec := NewRecorder()
		// ~8 bytes covers the common record shape (2-byte header, short
		// pc delta, register bytes) with a little slack.
		if hint := rep.n * 8; hint > int64(cap(rec.buf)) && hint <= 1<<31 {
			rec.buf = make([]byte, 0, hint)
		}
		var r Record
		for bi := 0; bi < rep.blocks.NumBlocks(); bi++ {
			blk := rep.blocks.Block(bi)
			for i := 0; i < blk.Len(); i++ {
				blk.Record(i, &r)
				rec.Record(&r)
			}
		}
		rep.buf = rec.buf
	})
}

// Size returns the encoded buffer size in bytes, encoding a capture-born
// Replay on first call.
func (rep *Replay) Size() int {
	rep.ensureBuf()
	return len(rep.buf)
}

// MemBytes returns the resident size of the representation the Replay
// actually holds: decoded columns for a capture-born Replay, the encoded
// buffer otherwise. Unlike Size it never forces an encode or decode.
func (rep *Replay) MemBytes() int64 {
	if rep.fromBlocks {
		return rep.blocks.ByteSize()
	}
	return int64(len(rep.buf))
}

// Bytes returns a copy of the encoded record buffer. It exists so tests
// and the fault-injection harness can build deliberately damaged captures
// with NewReplayBytes; the Replay itself stays immutable.
func (rep *Replay) Bytes() []byte {
	rep.ensureBuf()
	return append([]byte(nil), rep.buf...)
}

// NewReplayBytes reconstructs a Replay from an encoded record buffer (the
// v2 record layout, no header) and the record count the buffer claims to
// hold. Cursors over the result report ErrCorrupt instead of panicking
// when the bytes do not decode to exactly n records.
func NewReplayBytes(buf []byte, n int64) *Replay { return &Replay{buf: buf, n: n} }

// Open implements Factory, returning a fresh cursor over the capture: a
// BatchCursor straight over the batched columns for a capture-born Replay
// (no encoded buffer needed), a decoding Cursor otherwise. Both yield the
// identical record stream.
func (rep *Replay) Open() Source {
	if rep.fromBlocks {
		return &BatchCursor{bs: rep.blocks}
	}
	return &Cursor{rep: rep}
}

// NumBlocks implements BlockSource over the decoded batches.
func (rep *Replay) NumBlocks() int { return rep.Blocks().NumBlocks() }

// BlockAt implements BlockSource; in-memory batches never fail.
func (rep *Replay) BlockAt(i int) (*Block, error) { return rep.Blocks().Block(i), nil }

// CleanLen implements BlockSource: the cleanly decodable record count,
// smaller than Len when the underlying buffer is damaged.
func (rep *Replay) CleanLen() int64 { return rep.Blocks().Len() }

// TailErr implements BlockSource: the decode error after the clean
// prefix, nil for an undamaged capture.
func (rep *Replay) TailErr() error { return rep.Blocks().Err() }

var (
	_ Factory     = (*Replay)(nil)
	_ BlockSource = (*Replay)(nil)
)

// Cursor is a read-only decoding position within a Replay. Next performs
// no allocation; distinct cursors over one Replay may be advanced from
// different goroutines concurrently.
//
// A damaged buffer (bit flips, truncation) never panics: Next returns
// false and Err reports an ErrCorrupt with the failing byte offset. A
// cursor also fails if the buffer ends before the Replay's full record
// count has been decoded, so truncated captures are always detected.
type Cursor struct {
	rep      *Replay
	pos      int
	decoded  int64
	prevPC   uint64
	prevAddr uint64
	err      error
}

// Reset rewinds the cursor to the start of the capture and clears any
// decode error.
func (c *Cursor) Reset() { *c = Cursor{rep: c.rep} }

// Err returns the first decode error encountered, or nil on clean end.
func (c *Cursor) Err() error { return c.err }

var _ ErrSource = (*Cursor)(nil)

func (c *Cursor) fail(offset int, format string, args ...any) bool {
	c.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), offset)
	return false
}

func (c *Cursor) uvarint(buf []byte) (uint64, bool) {
	v, n := binary.Uvarint(buf[c.pos:])
	if n <= 0 {
		return 0, false
	}
	c.pos += n
	return v, true
}

// Next implements Source.
func (c *Cursor) Next(r *Record) bool {
	if c.err != nil {
		return false
	}
	buf := c.rep.buf
	if c.pos >= len(buf) {
		if c.decoded != c.rep.n {
			return c.fail(c.pos, "truncated replay (%d of %d records)", c.decoded, c.rep.n)
		}
		return false
	}
	if c.decoded >= c.rep.n {
		return c.fail(c.pos, "replay decodes past %d records", c.rep.n)
	}
	start := c.pos
	if c.pos+2 > len(buf) {
		return c.fail(start, "truncated record header")
	}
	flags, classOp := buf[c.pos], buf[c.pos+1]
	if flags&0xf0 != 0 {
		return c.fail(start, "invalid flags %#x", flags)
	}
	if int(classOp&0xf) >= numClasses || int(classOp>>4) >= NumOpClasses {
		return c.fail(start, "invalid class byte %#x", classOp)
	}
	c.pos += 2
	*r = Record{
		Class: Class(classOp & 0xf),
		Op:    OpClass(classOp >> 4),
		Taken: flags&1 != 0,
	}
	d, ok := c.uvarint(buf)
	if !ok {
		return c.fail(c.pos, "invalid pc varint")
	}
	r.PC = c.prevPC + uint64(unzig(d))
	c.prevPC = r.PC
	if flags&2 != 0 {
		if d, ok = c.uvarint(buf); !ok {
			return c.fail(c.pos, "invalid target varint")
		}
		r.Target = r.PC + uint64(unzig(d))
	}
	if flags&4 != 0 {
		if d, ok = c.uvarint(buf); !ok {
			return c.fail(c.pos, "invalid addr varint")
		}
		r.Addr = c.prevAddr + uint64(unzig(d))
		c.prevAddr = r.Addr
	}
	if flags&8 != 0 {
		if c.pos+3 > len(buf) {
			return c.fail(c.pos, "truncated register bytes")
		}
		r.Dst, r.Src1, r.Src2 = buf[c.pos], buf[c.pos+1], buf[c.pos+2]
		c.pos += 3
	}
	c.decoded++
	return true
}
