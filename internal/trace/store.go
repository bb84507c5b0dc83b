package trace

// Out-of-core columnar trace store: the TCSTORE1 on-disk format holds a
// capture as block groups, raw in the exact Block column layout or
// predictively coded and compressed (predict.go), so budgets far beyond
// RAM replay in flat memory. It is the repository's one trace file
// format. A Store reads groups lazily through an io.ReaderAt and decodes
// them into ordinary Block batches; the simulation kernels iterate it
// through the same BlockSource interface an in-memory Replay implements.
//
// Every pass over a capture reads it front to back, and a spilled capture
// is rescanned by many passes. A Store therefore keeps the leading groups
// its budget holds decoded once read, and holds any later group only
// until a reader takes its last block: a recency cache smaller than the
// capture would instead evict each group just before the next pass needs
// it. A group decodes in one of two forms: in full, every column, for
// BlockAt, or in flow form, only the control-flow columns (17 of a
// record's 28 bytes), for FlowAt, which the accuracy passes call. A slot
// holds one decode of its group: FlowAt shares whichever form the slot
// holds, and BlockAt replaces a flow-form decode with a full one. The
// resident prefix is as many groups as the budget holds in the widest
// form the store has served: flow form until the first BlockAt, full
// form from then on. Resident bytes stay within the budget, plus at most
// one group per active reader and one read-ahead group per waiting reader;
// a reader that stops inside a later group leaves it held until another
// reader takes its last block. Concurrent readers of one group share one
// decode, and a reader that would wait for it decodes the next group
// meanwhile.
//
// File layout (all integers little-endian):
//
//	magic            8  bytes  "TCSTORE1"
//	group 0..G-1     per group: encoded payload | uint32 CRC32(payload)
//	index            per group: int64 offset | uint32 encLen | uint32 recs
//	footer          44  bytes  int64 indexOff | uint32 groups |
//	                           int64 totalRecs | uint32 flags |
//	                           uint32 blockLen | uint32 groupRecs |
//	                           uint32 CRC32(index) | 8 bytes "TCSTEND1"
//
// A raw group payload (flags 0) is the Block columns:
//
//	uint32 recs | PC[recs]×8 | Target[recs]×8 | Addr[recs]×8 |
//	Meta[recs] | Dst[recs] | Src1[recs] | Src2[recs]
//
// A compressed group payload (flag storeFlagPredict) is a header and one
// flate stream:
//
//	uint32 recs | uint32 len(PC misses) | uint32 len(static misses) |
//	uint32 len(target misses) | uint32 len(address misses) |
//	flate(flags[recs] | PC misses | static misses | target misses |
//	      address misses)
//
// where each record's flag byte says which of its fields the predictors
// in predict.go miss, and the four streams hold those fields in record
// order.
//
// Every byte of the file is covered by a check: group payloads and the
// index carry CRC32s, and the footer fields are cross-validated against
// the file size, the block layout constants, and each other. Damage never
// panics: it surfaces as an ErrCorrupt from OpenStore or from BlockAt on
// the affected group, including a file truncated after it was opened. A
// flow-form decode checks every stream a full one does, so FlowAt fails
// wherever BlockAt fails, with the same error.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	storeMagic    = "TCSTORE1"
	storeEndMagic = "TCSTEND1"
	// storeFooterLen is the fixed footer size.
	storeFooterLen = 8 + 4 + 8 + 4 + 4 + 4 + 4 + 8
	// storeIndexEntryLen is one index entry: offset, encoded length,
	// record count.
	storeIndexEntryLen = 8 + 4 + 4
	// storeFlagRetiredFlate marked group payloads that were flate over
	// the raw columns, an encoding no longer read.
	storeFlagRetiredFlate = 1 << 0
	// storeFlagPredict marks predictively coded, flate-compressed group
	// payloads.
	storeFlagPredict = 1 << 1
	// storeGroupRecords is the default records per group: 16 blocks,
	// ~1.8 MB of raw columns — large enough to amortise a read syscall,
	// small enough that a store's budget holds tens of groups.
	storeGroupRecords = 16 * BlockLen
	// storeDefaultBudget is a store's resident budget when the caller
	// passes none.
	storeDefaultBudget = 64 << 20
)

// storeBytesPerRecord is the raw column footprint of one record, and
// flowBytesPerRecord that of its control-flow columns (PC, Target, Meta).
const (
	storeBytesPerRecord = 3*8 + 4
	flowBytesPerRecord  = 2*8 + 1
)

// StoreOptions configure WriteStore.
type StoreOptions struct {
	// Compress stores every group as the fields its predictors miss,
	// then flate-compresses it (predict.go). The workloads' 3M-record
	// captures take 0.04-0.20 bytes per record, 140-680× smaller than
	// raw groups' 28.
	Compress bool
	// GroupRecords is the records per block group; 0 means the default
	// (16 blocks). It must be a positive multiple of BlockLen.
	GroupRecords int
}

// WriteStore drains src into w in the TCSTORE1 format and returns the
// record count written. The stream is written strictly forward (no
// seeking), so w can be a pipe or a growing file.
func WriteStore(w io.Writer, src Source, opts StoreOptions) (int64, error) {
	groupRecs := opts.GroupRecords
	if groupRecs == 0 {
		groupRecs = storeGroupRecords
	}
	if groupRecs <= 0 || groupRecs%BlockLen != 0 {
		return 0, fmt.Errorf("trace: store group size %d is not a positive multiple of %d", groupRecs, BlockLen)
	}
	sw := &storeWriter{w: w, groupRecs: groupRecs}
	if opts.Compress {
		sw.pred = new(predEncoder)
	} else {
		sw.pc = make([]uint64, 0, groupRecs)
		sw.target = make([]uint64, 0, groupRecs)
		sw.addr = make([]uint64, 0, groupRecs)
		sw.meta = make([]uint8, 0, groupRecs)
		sw.dst = make([]uint8, 0, groupRecs)
		sw.src1 = make([]uint8, 0, groupRecs)
		sw.src2 = make([]uint8, 0, groupRecs)
	}
	if err := sw.writeRaw([]byte(storeMagic)); err != nil {
		return 0, err
	}
	var r Record
	for src.Next(&r) {
		if err := sw.add(&r); err != nil {
			return sw.n, err
		}
	}
	if err := SourceErr(src); err != nil {
		return sw.n, err
	}
	if err := sw.finish(); err != nil {
		return sw.n, err
	}
	return sw.n, nil
}

type storeGroupMeta struct {
	off    int64
	encLen uint32
	recs   uint32
}

type storeWriter struct {
	w         io.Writer
	off       int64
	n         int64
	groupRecs int
	recs      int // records in the pending group
	index     []storeGroupMeta

	// pred codes compressed groups; the columns hold raw ones.
	pred                  *predEncoder
	pc, target, addr      []uint64
	meta, dst, src1, src2 []uint8
	payload               []byte
	flateW                *flate.Writer
}

func (sw *storeWriter) writeRaw(b []byte) error {
	n, err := sw.w.Write(b)
	sw.off += int64(n)
	return err
}

func (sw *storeWriter) add(r *Record) error {
	if sw.pred != nil {
		sw.pred.add(r)
	} else {
		sw.pc = append(sw.pc, r.PC)
		sw.target = append(sw.target, r.Target)
		sw.addr = append(sw.addr, r.Addr)
		mb := uint8(r.Class) | uint8(r.Op)<<MetaOpShift
		if r.Taken {
			mb |= MetaTaken
		}
		sw.meta = append(sw.meta, mb)
		sw.dst = append(sw.dst, r.Dst)
		sw.src1 = append(sw.src1, r.Src1)
		sw.src2 = append(sw.src2, r.Src2)
	}
	sw.n++
	sw.recs++
	if sw.recs == sw.groupRecs {
		return sw.flushGroup()
	}
	return nil
}

// flushGroup encodes the pending records as one group and writes it.
func (sw *storeWriter) flushGroup() error {
	if sw.recs == 0 {
		return nil
	}
	var enc []byte
	if sw.pred != nil {
		buf := bytes.NewBuffer(sw.pred.header(sw.payload[:0]))
		if sw.flateW == nil {
			zw, err := flate.NewWriter(buf, flate.BestSpeed)
			if err != nil {
				return err
			}
			sw.flateW = zw
		} else {
			sw.flateW.Reset(buf)
		}
		if err := sw.pred.writeBody(sw.flateW); err != nil {
			return err
		}
		if err := sw.flateW.Close(); err != nil {
			return err
		}
		enc = buf.Bytes()
		sw.pred.reset()
	} else {
		enc = binary.LittleEndian.AppendUint32(sw.payload[:0], uint32(sw.recs))
		for _, v := range sw.pc {
			enc = binary.LittleEndian.AppendUint64(enc, v)
		}
		for _, v := range sw.target {
			enc = binary.LittleEndian.AppendUint64(enc, v)
		}
		for _, v := range sw.addr {
			enc = binary.LittleEndian.AppendUint64(enc, v)
		}
		enc = append(enc, sw.meta...)
		enc = append(enc, sw.dst...)
		enc = append(enc, sw.src1...)
		enc = append(enc, sw.src2...)
		sw.pc, sw.target, sw.addr = sw.pc[:0], sw.target[:0], sw.addr[:0]
		sw.meta, sw.dst, sw.src1, sw.src2 = sw.meta[:0], sw.dst[:0], sw.src1[:0], sw.src2[:0]
	}
	sw.payload = enc

	sw.index = append(sw.index, storeGroupMeta{off: sw.off, encLen: uint32(len(enc)), recs: uint32(sw.recs)})
	sw.recs = 0
	if err := sw.writeRaw(enc); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(enc))
	return sw.writeRaw(crc[:])
}

func (sw *storeWriter) finish() error {
	if err := sw.flushGroup(); err != nil {
		return err
	}
	indexOff := sw.off
	idx := make([]byte, 0, len(sw.index)*storeIndexEntryLen)
	for _, g := range sw.index {
		idx = binary.LittleEndian.AppendUint64(idx, uint64(g.off))
		idx = binary.LittleEndian.AppendUint32(idx, g.encLen)
		idx = binary.LittleEndian.AppendUint32(idx, g.recs)
	}
	if err := sw.writeRaw(idx); err != nil {
		return err
	}
	var flags uint32
	if sw.pred != nil {
		flags |= storeFlagPredict
	}
	foot := make([]byte, 0, storeFooterLen)
	foot = binary.LittleEndian.AppendUint64(foot, uint64(indexOff))
	foot = binary.LittleEndian.AppendUint32(foot, uint32(len(sw.index)))
	foot = binary.LittleEndian.AppendUint64(foot, uint64(sw.n))
	foot = binary.LittleEndian.AppendUint32(foot, flags)
	foot = binary.LittleEndian.AppendUint32(foot, BlockLen)
	foot = binary.LittleEndian.AppendUint32(foot, uint32(sw.groupRecs))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(idx))
	foot = append(foot, storeEndMagic...)
	return sw.writeRaw(foot)
}

// ---- reader ----

// Store is a lazily decoded TCSTORE1 capture. It implements BlockSource
// (and through it Factory), so every simulation kernel and cursor runs
// over it unchanged; block groups are decoded on demand into one slot per
// group. All methods are safe for concurrent use.
type Store struct {
	r        io.ReaderAt
	closer   io.Closer
	size     int64
	compress bool

	groups     []storeGroupMeta
	blocksPerG int
	nblocks    int
	n          int64

	// resident and flowResident count the leading groups the budget
	// passed to OpenStore holds decoded in full and in flow form; the
	// groups of the widest form served (prefix) stay decoded once read.
	resident, flowResident int
	mu                     sync.Mutex
	wide                   bool           // the store has served a BlockAt
	slots                  []*groupDecode // per group: the decode holding it, or nil

	hits, misses atomic.Int64
}

// groupDecode is one decode of one group. Readers that find it in their
// group's slot share it, waiting on done while it is in flight.
type groupDecode struct {
	done chan struct{} // closed once blocks or err is set
	// full is set when blocks hold every column; otherwise they hold only
	// their Flow columns.
	full   bool
	blocks []Block
	err    error
}

// corruptf builds a store ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// OpenStore opens a TCSTORE1 capture from r (size bytes long), validating
// the footer and index. budget is the decoded bytes the store keeps
// resident (<= 0 selects the 64 MiB default): the first budget ÷ (decoded
// group size) groups stay decoded once read, the group size being that of
// the widest form the store has served. Group payloads are validated
// lazily: damage inside a group surfaces as an ErrCorrupt from BlockAt
// and FlowAt.
func OpenStore(r io.ReaderAt, size int64, budget int64) (*Store, error) {
	if budget <= 0 {
		budget = storeDefaultBudget
	}
	if size < int64(len(storeMagic))+storeFooterLen {
		return nil, corruptf("store file too small (%d bytes)", size)
	}
	head := make([]byte, len(storeMagic))
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("trace: store header: %w", err)
	}
	if string(head) != storeMagic {
		return nil, corruptf("bad store magic %q", head)
	}
	foot := make([]byte, storeFooterLen)
	if _, err := r.ReadAt(foot, size-storeFooterLen); err != nil {
		return nil, fmt.Errorf("trace: store footer: %w", err)
	}
	if string(foot[storeFooterLen-8:]) != storeEndMagic {
		return nil, corruptf("bad store end magic %q", foot[storeFooterLen-8:])
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	groupCount := int64(binary.LittleEndian.Uint32(foot[8:]))
	totalRecs := int64(binary.LittleEndian.Uint64(foot[12:]))
	flags := binary.LittleEndian.Uint32(foot[20:])
	blockLen := binary.LittleEndian.Uint32(foot[24:])
	groupRecs := int64(binary.LittleEndian.Uint32(foot[28:]))
	indexCRC := binary.LittleEndian.Uint32(foot[32:])
	if blockLen != BlockLen {
		return nil, corruptf("store block length %d, want %d", blockLen, BlockLen)
	}
	if flags&storeFlagRetiredFlate != 0 {
		return nil, corruptf("store flags %#x: groups in the retired flate-column encoding; write the file again", flags)
	}
	if flags&^uint32(storeFlagPredict) != 0 {
		return nil, corruptf("unknown store flags %#x", flags)
	}
	if groupRecs <= 0 || groupRecs%BlockLen != 0 {
		return nil, corruptf("store group size %d not a multiple of %d", groupRecs, BlockLen)
	}
	idxLen := groupCount * storeIndexEntryLen
	if indexOff < int64(len(storeMagic)) || indexOff+idxLen != size-storeFooterLen {
		return nil, corruptf("store index [%d,+%d) inconsistent with file size %d", indexOff, idxLen, size)
	}
	idx := make([]byte, idxLen)
	if _, err := r.ReadAt(idx, indexOff); err != nil {
		return nil, fmt.Errorf("trace: store index: %w", err)
	}
	if crc := crc32.ChecksumIEEE(idx); crc != indexCRC {
		return nil, corruptf("store index checksum %#x, want %#x", crc, indexCRC)
	}
	s := &Store{
		r:            r,
		size:         size,
		compress:     flags&storeFlagPredict != 0,
		blocksPerG:   int(groupRecs / BlockLen),
		resident:     int(min(budget/(groupRecs*storeBytesPerRecord), groupCount)),
		flowResident: int(min(budget/(groupRecs*flowBytesPerRecord), groupCount)),
		slots:        make([]*groupDecode, groupCount),
	}
	end := int64(len(storeMagic))
	var sum int64
	for gi := int64(0); gi < groupCount; gi++ {
		e := idx[gi*storeIndexEntryLen:]
		g := storeGroupMeta{
			off:    int64(binary.LittleEndian.Uint64(e[0:])),
			encLen: binary.LittleEndian.Uint32(e[8:]),
			recs:   binary.LittleEndian.Uint32(e[12:]),
		}
		if g.off != end || g.encLen == 0 {
			return nil, corruptf("store group %d at offset %d, want %d", gi, g.off, end)
		}
		if g.recs == 0 || int64(g.recs) > groupRecs {
			return nil, corruptf("store group %d holds %d records, group size %d", gi, g.recs, groupRecs)
		}
		if gi < groupCount-1 && int64(g.recs) != groupRecs {
			return nil, corruptf("store group %d short (%d of %d records) before last", gi, g.recs, groupRecs)
		}
		end = g.off + int64(g.encLen) + 4
		sum += int64(g.recs)
		s.groups = append(s.groups, g)
		s.nblocks += int(int64(g.recs)+BlockLen-1) / BlockLen
	}
	if end != indexOff {
		return nil, corruptf("store groups end at %d, index at %d", end, indexOff)
	}
	if sum != totalRecs {
		return nil, corruptf("store records %d, footer claims %d", sum, totalRecs)
	}
	s.n = totalRecs
	return s, nil
}

// OpenStoreFile opens a TCSTORE1 file from disk with OpenStore's
// resident budget; Close releases it.
func OpenStoreFile(path string, budget int64) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := OpenStore(f, st.Size(), budget)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.closer = f
	return s, nil
}

// Close releases the underlying file, if the Store owns one.
func (s *Store) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// Len returns the record count the store holds.
func (s *Store) Len() int64 { return s.n }

// NumBlocks implements BlockSource.
func (s *Store) NumBlocks() int { return s.nblocks }

// SizeBytes returns the on-disk file size.
func (s *Store) SizeBytes() int64 { return s.size }

// Compressed reports whether group payloads are predictively coded and
// flate-compressed.
func (s *Store) Compressed() bool { return s.compress }

// BlockAt implements BlockSource, decoding the containing group in full
// on demand. The returned block stays valid after its group leaves its
// slot (the slot drops its reference; the memory is never reused), so
// concurrent readers never observe reuse.
func (s *Store) BlockAt(i int) (*Block, error) {
	d, bi, err := s.read(i, true)
	if err != nil {
		return nil, err
	}
	return &d.blocks[bi], nil
}

// FlowAt implements BlockSource: block i's control-flow columns from the
// decode its group's slot holds, in either form, or else from a flow-form
// decode. They stay valid as BlockAt's block does.
func (s *Store) FlowAt(i int) (*Flow, error) {
	d, bi, err := s.read(i, false)
	if err != nil {
		return nil, err
	}
	return &d.blocks[bi].Flow, nil
}

// read returns the decode of block i's group, in full when full is set,
// and the block's index in it. A reader that takes the last block of a
// group past the resident prefix releases the group's slot.
func (s *Store) read(i int, full bool) (*groupDecode, int, error) {
	gi, bi := i/s.blocksPerG, i%s.blocksPerG
	d, err := s.group(gi, full)
	if err != nil {
		return nil, 0, err
	}
	if bi >= len(d.blocks) {
		return nil, 0, corruptf("store block %d beyond group %d (%d blocks)", i, gi, len(d.blocks))
	}
	if bi == len(d.blocks)-1 {
		s.mu.Lock()
		if gi >= s.prefix() && s.slots[gi] == d {
			s.slots[gi] = nil
		}
		s.mu.Unlock()
	}
	return d, bi, nil
}

// prefix is the count of leading groups that stay decoded once read: as
// many as the budget holds in the widest form the store has served.
// Caller holds mu.
func (s *Store) prefix() int {
	if s.wide {
		return s.resident
	}
	return s.flowResident
}

// group returns group gi's decode, in full when full is set, sharing the
// one its slot holds or has in flight when that serves; a full read of a
// group its slot holds in flow form decodes it again, in full, in its
// place. The first full read shrinks the resident prefix to the groups the
// budget holds in full and empties the slots it no longer covers. A reader
// that must wait first decodes the next group, in its own form, if no slot
// holds it: a pass reads forward, so that is the group it needs next.
func (s *Store) group(gi int, full bool) (*groupDecode, error) {
	s.mu.Lock()
	if full && !s.wide {
		s.wide = true
		clear(s.slots[s.resident:s.flowResident])
	}
	d := s.slots[gi]
	if d == nil || full && !d.full {
		d = s.claim(gi, full)
		s.mu.Unlock()
		s.decode(gi, d)
		return d, d.err
	}
	var ahead *groupDecode
	select {
	case <-d.done:
	default:
		if gi+1 < len(s.slots) && s.slots[gi+1] == nil {
			ahead = s.claim(gi+1, full)
		}
	}
	s.mu.Unlock()
	s.hits.Add(1)
	storeHits.Add(1)
	if ahead != nil {
		s.decode(gi+1, ahead)
	}
	<-d.done
	return d, d.err
}

// claim puts a decode of the given form in flight in group gi's slot.
// Caller holds mu.
func (s *Store) claim(gi int, full bool) *groupDecode {
	d := &groupDecode{done: make(chan struct{}), full: full}
	s.slots[gi] = d
	return d
}

// decode fills d with group gi and wakes its waiters. A failed decode is
// never kept, so the next read of the group tries again.
func (s *Store) decode(gi int, d *groupDecode) {
	s.misses.Add(1)
	storeMisses.Add(1)
	if d.blocks, d.err = s.decodeGroup(gi, d.full); d.err != nil {
		s.drop(gi, d)
	}
	close(d.done)
}

// drop empties group gi's slot if it still holds d.
func (s *Store) drop(gi int, d *groupDecode) {
	s.mu.Lock()
	if s.slots[gi] == d {
		s.slots[gi] = nil
	}
	s.mu.Unlock()
}

// decodeBufs is the input side of one group decode: the encoded bytes,
// the inflated body, the flate reader and the predictor table. Every
// field is copied out of it, so decodes recycle it through decodeBufPool.
type decodeBufs struct {
	enc, body []byte
	br        bytes.Reader
	zr        io.ReadCloser
	tab       predTable
}

var decodeBufPool = sync.Pool{New: func() any { return new(decodeBufs) }}

// decodeGroup reads, checks and decodes one group into Block batches, of
// every column when full is set, else of their Flow columns only.
func (s *Store) decodeGroup(gi int, full bool) ([]Block, error) {
	sc := decodeBufPool.Get().(*decodeBufs)
	defer decodeBufPool.Put(sc)
	g := s.groups[gi]
	readLen := int(g.encLen) + 4 // the payload and its CRC
	sc.enc = slices.Grow(sc.enc[:0], readLen)[:readLen]
	enc := sc.enc
	if n, err := s.r.ReadAt(enc, g.off); n < len(enc) {
		// A short read means the file shrank beneath the open store.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, corruptf("store group %d truncated (%d of %d bytes)", gi, n, len(enc))
		}
		return nil, fmt.Errorf("trace: store group %d read: %w", gi, err)
	}
	wantCRC := binary.LittleEndian.Uint32(enc[g.encLen:])
	enc = enc[:g.encLen]
	if crc := crc32.ChecksumIEEE(enc); crc != wantCRC {
		return nil, corruptf("store group %d checksum %#x, want %#x", gi, crc, wantCRC)
	}
	recs := int(g.recs)
	if !s.compress {
		if rawLen := 4 + recs*storeBytesPerRecord; len(enc) != rawLen {
			return nil, corruptf("store group %d payload %d bytes, want %d", gi, len(enc), rawLen)
		}
		if got := int(binary.LittleEndian.Uint32(enc)); got != recs {
			return nil, corruptf("store group %d payload claims %d records, index %d", gi, got, recs)
		}
		blocks := groupBlocks(recs, full)
		if err := decodeRaw(gi, enc[4:], blocks, full); err != nil {
			return nil, err
		}
		return blocks, nil
	}

	if len(enc) < predHeaderLen {
		return nil, corruptf("store group %d payload %d bytes, shorter than its header", gi, len(enc))
	}
	if got := int(binary.LittleEndian.Uint32(enc)); got != recs {
		return nil, corruptf("store group %d payload claims %d records, index %d", gi, got, recs)
	}
	var lens [predStreams]int
	bodyLen := recs
	for k := range lens {
		lens[k] = int(binary.LittleEndian.Uint32(enc[4+4*k:]))
		if lens[k] > recs*predStreamMax[k] {
			return nil, corruptf("store group %d missed-field stream %d claims %d bytes, at most %d for %d records", gi, k, lens[k], recs*predStreamMax[k], recs)
		}
		bodyLen += lens[k]
	}
	body, err := sc.inflate(gi, enc[predHeaderLen:], bodyLen)
	if err != nil {
		return nil, err
	}
	blocks := groupBlocks(recs, full)
	if err := decodePredicted(gi, &sc.tab, body, lens, blocks, full); err != nil {
		return nil, err
	}
	return blocks, nil
}

// inflate reads the flate stream in enc, which must hold exactly n bytes,
// into sc.body. The buffer grows only as inflated bytes arrive, so a header
// that claims more than its stream holds allocates no more than the
// stream delivers.
func (sc *decodeBufs) inflate(gi int, enc []byte, n int) ([]byte, error) {
	sc.br.Reset(enc)
	if sc.zr == nil {
		sc.zr = flate.NewReader(&sc.br)
	} else {
		// Reset only reinitialises the decompressor; it cannot fail.
		_ = sc.zr.(flate.Resetter).Reset(&sc.br, nil)
	}
	body := sc.body[:0]
	var err error
	for len(body) < n && err == nil {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), max(len(body), 64<<10)))
		}
		var k int
		k, err = sc.zr.Read(body[len(body):min(cap(body), n)])
		body = body[:len(body)+k]
	}
	sc.body = body
	if len(body) < n {
		return nil, corruptf("store group %d inflates to %d bytes, want %d: %v", gi, len(body), n, err)
	}
	if err == nil {
		// The stream must end where the header says.
		var spare [1]byte
		var k int
		if k, err = sc.zr.Read(spare[:]); k != 0 {
			return nil, corruptf("store group %d inflates past %d bytes", gi, n)
		}
	}
	if err != io.EOF {
		return nil, corruptf("store group %d inflate: %v", gi, err)
	}
	if sc.br.Len() != 0 {
		return nil, corruptf("store group %d: %d bytes after its flate stream", gi, sc.br.Len())
	}
	return body, nil
}

// groupBlocks returns the blocks of a group of recs records, with every
// column when full is set, else with only their Flow columns. All column
// storage is carved from two exact-size slabs rather than the shared
// columnArena: the arena over-provisions to its fixed slab size, and a
// held group pins whatever slab its blocks were carved from — exact slabs
// keep a held group's footprint at its decoded size.
func groupBlocks(recs int, full bool) []Block {
	blocks := make([]Block, 0, (recs+BlockLen-1)/BlockLen)
	w64, w8 := 2, 1
	if full {
		w64, w8 = 3, 4
	}
	slab64 := make([]uint64, w64*recs)
	slab8 := make([]uint8, w8*recs)
	for done := 0; done < recs; {
		n := min(BlockLen, recs-done)
		u64, u8 := slab64, slab8
		slab64, slab8 = u64[w64*n:], u8[w8*n:]
		blk := Block{Flow: Flow{
			PC:     u64[0*n : 1*n : 1*n],
			Target: u64[1*n : 2*n : 2*n],
			Meta:   u8[0*n : 1*n : 1*n],
		}}
		if full {
			blk.Addr = u64[2*n : 3*n : 3*n]
			blk.Dst = u8[1*n : 2*n : 2*n]
			blk.Src1 = u8[2*n : 3*n : 3*n]
			blk.Src2 = u8[3*n : 4*n : 4*n]
		}
		blocks = append(blocks, blk)
		done += n
	}
	return blocks
}

// decodeRaw copies group gi's raw columns (the payload after its record
// count) into blocks, all of them when full is set, else the Flow ones,
// checking every Meta byte.
func decodeRaw(gi int, cols []byte, blocks []Block, full bool) error {
	recs := len(cols) / storeBytesPerRecord
	pcCol := cols
	tgtCol := pcCol[recs*8:]
	addrCol := tgtCol[recs*8:]
	metaCol := addrCol[recs*8 : recs*8+recs]
	dstCol := addrCol[recs*8+recs:]
	src1Col := dstCol[recs:]
	src2Col := src1Col[recs:]
	done := 0
	for _, blk := range blocks {
		n := blk.Len()
		for j := 0; j < n; j++ {
			blk.PC[j] = binary.LittleEndian.Uint64(pcCol[(done+j)*8:])
			blk.Target[j] = binary.LittleEndian.Uint64(tgtCol[(done+j)*8:])
		}
		copy(blk.Meta, metaCol[done:done+n])
		if full {
			for j := 0; j < n; j++ {
				blk.Addr[j] = binary.LittleEndian.Uint64(addrCol[(done+j)*8:])
			}
			copy(blk.Dst, dstCol[done:done+n])
			copy(blk.Src1, src1Col[done:done+n])
			copy(blk.Src2, src2Col[done:done+n])
		}
		for j, mb := range blk.Meta {
			if int(mb&MetaClassMask) >= numClasses || int(mb>>MetaOpShift&MetaOpMask) >= NumOpClasses {
				return corruptf("store group %d record %d: invalid meta byte %#x", gi, done+j, mb)
			}
		}
		done += n
	}
	return nil
}

// Open implements Factory, returning a streaming cursor over the store.
func (s *Store) Open() Source { return &Cursor{bs: s} }

var _ BlockSource = (*Store)(nil)

// CacheStats reports a store's group-slot activity: a miss is one group
// decode, read-aheads included; a hit is a read served by a decode another
// read made, held or still in flight.
type CacheStats struct {
	Hits, Misses int64
}

// CacheStats returns this store's counters.
func (s *Store) CacheStats() CacheStats {
	return CacheStats{Hits: s.hits.Load(), Misses: s.misses.Load()}
}

// Package-wide store counters, aggregated across every Store for
// run-level telemetry.
var storeHits, storeMisses atomic.Int64

// StoreCacheCounters returns process-wide store activity.
func StoreCacheCounters() CacheStats {
	return CacheStats{Hits: storeHits.Load(), Misses: storeMisses.Load()}
}
