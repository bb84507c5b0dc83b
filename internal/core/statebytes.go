package core

// Approximate in-memory footprints of the predictor structures, used by
// the sweep engine's gang planner to bound how many predictor instances
// it fuses into one trace pass. These price the Go heap representation —
// table slices plus per-entry bookkeeping — not the architectural budget
// (that is CostBits). Estimates only need to be the right order of
// magnitude: the planner divides a soft memory budget by the largest
// member to pick a gang width, so a factor-of-two error moves the width
// by at most one power of two.

// cacheLineBytes approximates one line of cache.Cache[uint64]: tag,
// payload and LRU tick, padded.
const cacheLineBytes = 32

// ApproxStateBytes estimates the heap footprint of NewTagless(c) once
// its table is allocated (by its first Update).
func (c TaglessConfig) ApproxStateBytes() int64 {
	return int64(c.Entries) * 8
}

// ApproxStateBytes estimates the heap footprint of NewTagged(c) once
// its table is allocated (by its first access).
func (c TaggedConfig) ApproxStateBytes() int64 {
	return int64(c.Entries) * cacheLineBytes
}

// ApproxStateBytes estimates the heap footprint of NewCascaded(c).
func (c CascadedConfig) ApproxStateBytes() int64 {
	return int64(c.Stage1Entries)*cacheLineBytes + c.Stage2.ApproxStateBytes()
}

// ApproxStateBytes estimates the heap footprint of NewITTAGE(c): the base
// last-target table plus one ittageEntry (~24 bytes padded) per tagged
// table entry.
func (c ITTAGEConfig) ApproxStateBytes() int64 {
	return int64(c.BaseEntries)*8 + int64(len(c.HistLens))*int64(c.TableEntries)*24
}
