package trace

// Trace memoization: the experiment suite replays each workload's
// deterministic trace many times (once per predictor configuration), and
// re-running the VM for every pass dominates wall-clock. Capture records
// one pass straight into the batched Block form every simulation kernel
// consumes, and the resulting Replay hands out any number of independent,
// allocation-free cursors over it. The blocks are immutable once Capture
// returns, so concurrent cursors are race-free by construction.

// Capture drains src into a new Replay.
func Capture(src Source) *Replay {
	rep := &Replay{}
	var arena columnArena
	var blk *Block
	filled := BlockLen
	var r Record
	for src.Next(&r) {
		if filled == BlockLen {
			rep.blocks = append(rep.blocks, arena.alloc(BlockLen))
			blk = &rep.blocks[len(rep.blocks)-1]
			filled = 0
		}
		blk.PC[filled] = r.PC
		blk.Target[filled] = r.Target
		blk.Addr[filled] = r.Addr
		blk.Dst[filled] = r.Dst
		blk.Src1[filled] = r.Src1
		blk.Src2[filled] = r.Src2
		mb := uint8(r.Class) | uint8(r.Op)<<MetaOpShift
		if r.Taken {
			mb |= MetaTaken
		}
		blk.Meta[filled] = mb
		filled++
	}
	if blk != nil {
		blk.truncate(filled)
		rep.n = int64(len(rep.blocks)-1)*BlockLen + int64(filled)
	}
	return rep
}

// Replay is an immutable captured trace: its records held as BlockLen-
// record structure-of-arrays batches, the form the simulation kernels
// iterate. It implements BlockSource (and through it Factory): each Open
// returns an independent cursor positioned at the first record, so one
// capture serves any number of concurrent simulation passes.
type Replay struct {
	blocks []Block
	n      int64
}

// Len returns the number of records captured.
func (rep *Replay) Len() int64 { return rep.n }

// NumBlocks implements BlockSource.
func (rep *Replay) NumBlocks() int { return len(rep.blocks) }

// BlockAt implements BlockSource; in-memory batches never fail.
func (rep *Replay) BlockAt(i int) (*Block, error) { return &rep.blocks[i], nil }

// MemBytes returns the resident size of the captured columns in bytes
// (3 uint64 and 4 byte columns per record).
func (rep *Replay) MemBytes() int64 { return rep.n * storeBytesPerRecord }

// Open implements Factory, returning a fresh cursor over the capture.
func (rep *Replay) Open() Source { return &Cursor{bs: rep} }

var _ BlockSource = (*Replay)(nil)

// Cursor is the Source over any BlockSource: it fetches the blocks in
// order through BlockAt and materializes one Record per Next. Next
// performs no allocation; distinct cursors over one source may be
// advanced from different goroutines concurrently.
//
// A BlockAt error (a damaged or truncated store group) ends the stream:
// Next returns false and Err reports the error, after every record of
// the blocks before the failing one has been yielded.
type Cursor struct {
	bs  BlockSource
	bi  int // the next block to fetch
	blk *Block
	i   int
	err error
}

// Next implements Source.
func (c *Cursor) Next(r *Record) bool {
	for c.blk == nil || c.i == len(c.blk.Meta) {
		if c.err != nil || c.bi == c.bs.NumBlocks() {
			return false
		}
		if c.blk, c.err = c.bs.BlockAt(c.bi); c.err != nil {
			return false
		}
		c.bi, c.i = c.bi+1, 0
	}
	c.blk.Record(c.i, r)
	c.i++
	return true
}

// Reset rewinds the cursor to the first record and clears any error.
func (c *Cursor) Reset() { *c = Cursor{bs: c.bs} }

// Err returns the first BlockAt error encountered, or nil on clean end.
func (c *Cursor) Err() error { return c.err }

var _ ErrSource = (*Cursor)(nil)
