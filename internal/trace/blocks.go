package trace

// Batched replay: the experiment suite replays one memoized capture
// through dozens of simulation cells. Every capture is held as immutable
// structure-of-arrays batches that each cell iterates with plain slice
// loads — no per-record decode, no per-record branch on field presence,
// and a one-byte class/op/taken summary that lets kernels skip non-branch
// records without materializing a Record at all.
//
// The batch layout is parallel slices of BlockLen records each: pc, target
// and effective address as uint64 slices, the register operands as byte
// slices, and a packed Meta byte per record (class, op class, taken bit).
// The TCSTORE1 file format (store.go) holds the same columns, so a stored
// group decodes into blocks with column copies. Blocks are immutable once
// built; any number of goroutines may iterate them concurrently.

// BlockLen is the record capacity of one Block. Each block's column data
// spans ~112KB, large enough to amortise loop setup and small enough to
// stay cache-friendly.
const BlockLen = 4096

// Meta byte layout: bits 0-3 the Class, bits 4-6 the OpClass, bit 7 the
// taken flag. Together with the value columns this reconstructs the full
// Record (a zero Target/Addr/register column entry means the field was
// absent).
const (
	MetaClassMask = 0x0f
	MetaOpShift   = 4
	MetaOpMask    = 0x07
	MetaTaken     = 0x80
)

// Block is one structure-of-arrays batch of records. All slices share the
// same length. The slices are exported so hot simulation kernels can
// index the columns directly; they are shared and must be treated as
// read-only.
type Block struct {
	PC     []uint64
	Target []uint64
	Addr   []uint64
	Meta   []uint8
	Dst    []uint8
	Src1   []uint8
	Src2   []uint8
}

// Len returns the number of records in the block.
func (b *Block) Len() int { return len(b.Meta) }

// Class returns record i's control-flow class.
func (b *Block) Class(i int) Class { return Class(b.Meta[i] & MetaClassMask) }

// Op returns record i's functional-unit class.
func (b *Block) Op(i int) OpClass { return OpClass(b.Meta[i] >> MetaOpShift & MetaOpMask) }

// Taken reports whether record i redirected the instruction stream.
func (b *Block) Taken(i int) bool { return b.Meta[i]&MetaTaken != 0 }

// Record materializes record i into *r.
func (b *Block) Record(i int, r *Record) {
	m := b.Meta[i]
	*r = Record{
		PC:     b.PC[i],
		Target: b.Target[i],
		Addr:   b.Addr[i],
		Class:  Class(m & MetaClassMask),
		Op:     OpClass(m >> MetaOpShift & MetaOpMask),
		Taken:  m&MetaTaken != 0,
		Dst:    b.Dst[i],
		Src1:   b.Src1[i],
		Src2:   b.Src2[i],
	}
}

// truncate seals a block's columns at its filled length.
func (b *Block) truncate(n int) {
	b.PC = b.PC[:n]
	b.Target = b.Target[:n]
	b.Addr = b.Addr[:n]
	b.Meta = b.Meta[:n]
	b.Dst = b.Dst[:n]
	b.Src1 = b.Src1[:n]
	b.Src2 = b.Src2[:n]
}

// BlockSource is a randomly addressable batched capture: the abstraction
// the simulation kernels iterate. Implementations are the in-memory
// Replay and the out-of-core Store, which decodes block groups lazily
// from a TCSTORE1 file. Both obey the same layout invariant: block i
// covers records [i*BlockLen, i*BlockLen + BlockAt(i).Len()), i.e. every
// block except the last holds exactly BlockLen records — kernels rely on
// this to seek to a record index without scanning.
//
// Damage surfaces only as a BlockAt error: a run stops at the first block
// it cannot read and reports that error with the counts of the records
// before it.
type BlockSource interface {
	Factory
	// Len returns the record count the source holds.
	Len() int64
	// NumBlocks returns the batch count.
	NumBlocks() int
	// BlockAt returns batch i, decoding it on demand for file-backed
	// sources. A non-nil error is an ErrCorrupt identifying the damaged
	// region, or the underlying read error; the returned block stays
	// valid after later calls.
	BlockAt(i int) (*Block, error)
}

// columnArena hands out block columns carved from large slabs. Profiling
// the experiment suite shows per-block column allocation (7 fresh slices
// every 4096 records) dominating capture cost — mostly page-fault and
// allocator overhead on the many small makes. One slab covers
// arenaBlocks=64 blocks (6 MB of uint64 columns, 1 MB of byte columns),
// cutting the allocation count 64× while keeping each block's columns
// contiguous. Slices are carved with full-slice expressions so a block can
// never grow into its neighbour's storage.
type columnArena struct {
	u64 []uint64
	u8  []uint8
}

const arenaBlocks = 64

// alloc returns a zeroed Block with column capacity n.
func (a *columnArena) alloc(n int) Block {
	if len(a.u64) < 3*n || len(a.u8) < 4*n {
		a.u64 = make([]uint64, 3*BlockLen*arenaBlocks)
		a.u8 = make([]uint8, 4*BlockLen*arenaBlocks)
	}
	u64, u8 := a.u64, a.u8
	a.u64, a.u8 = u64[3*n:], u8[4*n:]
	return Block{
		PC:     u64[0*n : 1*n : 1*n],
		Target: u64[1*n : 2*n : 2*n],
		Addr:   u64[2*n : 3*n : 3*n],
		Meta:   u8[0*n : 1*n : 1*n],
		Dst:    u8[1*n : 2*n : 2*n],
		Src1:   u8[2*n : 3*n : 3*n],
		Src2:   u8[3*n : 4*n : 4*n],
	}
}
