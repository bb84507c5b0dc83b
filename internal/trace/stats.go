package trace

// Stats accumulates the trace-level statistics reported in Table 1 and
// Figures 1-8 of the paper: dynamic instruction and branch counts, indirect
// jump counts, and the number of distinct dynamic targets seen per static
// indirect jump.
type Stats struct {
	Instructions int64
	Branches     int64 // all control-flow instructions
	CondDirect   int64
	UncondDirect int64
	Calls        int64
	Returns      int64
	IndJumps     int64 // ClassIndJump + ClassIndCall (target-cache predicted)

	// OpMix counts instructions per functional-unit class (Table 3's
	// population in this trace).
	OpMix [NumOpClasses]int64

	// targets maps each static indirect jump PC to its set of dynamic
	// targets; dynCount holds that jump's dynamic execution count.
	targets  map[uint64]map[uint64]struct{}
	dynCount map[uint64]int64
}

// NewStats returns an empty accumulator.
func NewStats() *Stats {
	return &Stats{
		targets:  make(map[uint64]map[uint64]struct{}),
		dynCount: make(map[uint64]int64),
	}
}

// Observe accumulates one record.
func (s *Stats) Observe(r *Record) {
	s.Instructions++
	if int(r.Op) < NumOpClasses {
		s.OpMix[r.Op]++
	}
	switch r.Class {
	case ClassOther:
		return
	case ClassCondDirect:
		s.CondDirect++
	case ClassUncondDirect:
		s.UncondDirect++
	case ClassCall:
		s.Calls++
	case ClassReturn:
		s.Returns++
	case ClassIndJump, ClassIndCall:
		s.IndJumps++
		set := s.targets[r.PC]
		if set == nil {
			set = make(map[uint64]struct{})
			s.targets[r.PC] = set
		}
		set[r.Target] = struct{}{}
		s.dynCount[r.PC]++
	}
	s.Branches++
}

// Consume drains src through the accumulator and returns s for chaining.
func (s *Stats) Consume(src Source) *Stats {
	var r Record
	for src.Next(&r) {
		s.Observe(&r)
	}
	return s
}

// ConsumeBatches accumulates the first limit records of bs (limit <= 0
// means all), equivalent to Consume over bs.Open() but without
// materializing Records: it reads only the control-flow columns (FlowAt),
// the class and op come from the packed meta byte, and only indirect jumps
// touch the pc/target columns. A FlowAt error stops the scan; the records
// before the failing block stay accumulated.
func (s *Stats) ConsumeBatches(bs BlockSource, limit int64) (*Stats, error) {
	n := bs.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	for bi, done := 0, int64(0); done < n; bi++ {
		blk, err := bs.FlowAt(bi)
		if err != nil {
			return s, err
		}
		meta := blk.Meta
		if rem := n - done; rem < int64(len(meta)) {
			meta = meta[:rem]
		}
		pcs := blk.PC[:len(meta)]
		tgts := blk.Target[:len(meta)]
		for i, mb := range meta {
			s.Instructions++
			s.OpMix[mb>>MetaOpShift&MetaOpMask]++
			cls := Class(mb & MetaClassMask)
			switch cls {
			case ClassOther:
				continue
			case ClassCondDirect:
				s.CondDirect++
			case ClassUncondDirect:
				s.UncondDirect++
			case ClassCall:
				s.Calls++
			case ClassReturn:
				s.Returns++
			case ClassIndJump, ClassIndCall:
				s.IndJumps++
				pc := pcs[i]
				set := s.targets[pc]
				if set == nil {
					set = make(map[uint64]struct{})
					s.targets[pc] = set
				}
				set[tgts[i]] = struct{}{}
				s.dynCount[pc]++
			}
			s.Branches++
		}
		done += int64(len(meta))
	}
	return s, nil
}

// StaticIndJumps returns the number of distinct static indirect jumps seen.
func (s *Stats) StaticIndJumps() int { return len(s.targets) }

// TargetHistogramCap is the largest per-jump target count tracked
// individually by TargetHistogram; larger counts fall into the final
// ">= TargetHistogramCap" bucket, matching the ">=30" bucket of Figures 1-8.
const TargetHistogramCap = 30

// TargetHistogram returns the distribution of "number of distinct dynamic
// targets per static indirect jump" reported in Figures 1-8.
//
// Bucket i (1 <= i < TargetHistogramCap) counts jumps with exactly i
// targets; bucket TargetHistogramCap counts jumps with that many or more.
// Bucket 0 is unused. If dynamicWeighted is true, each static jump is
// weighted by its dynamic execution count (the fraction of *executed*
// indirect jumps whose site has i targets); otherwise each static site
// counts once.
func (s *Stats) TargetHistogram(dynamicWeighted bool) [TargetHistogramCap + 1]int64 {
	var h [TargetHistogramCap + 1]int64
	for pc, set := range s.targets {
		n := len(set)
		if n > TargetHistogramCap {
			n = TargetHistogramCap
		}
		if dynamicWeighted {
			h[n] += s.dynCount[pc]
		} else {
			h[n]++
		}
	}
	return h
}

// MaxTargets returns the largest number of distinct targets seen at any
// single static indirect jump.
func (s *Stats) MaxTargets() int {
	max := 0
	for _, set := range s.targets {
		if len(set) > max {
			max = len(set)
		}
	}
	return max
}

// PolymorphicFraction returns the fraction of dynamic indirect jumps whose
// static site exhibited more than one target — the population a BTB
// fundamentally cannot capture.
func (s *Stats) PolymorphicFraction() float64 {
	if s.IndJumps == 0 {
		return 0
	}
	var poly int64
	for pc, set := range s.targets {
		if len(set) > 1 {
			poly += s.dynCount[pc]
		}
	}
	return float64(poly) / float64(s.IndJumps)
}
