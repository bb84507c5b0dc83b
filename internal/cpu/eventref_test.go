package cpu

// The event model's cycle loop as it stood before the issue scan ended at
// the front-end boundary and before clean runs could be timed from a
// capture's columns, kept verbatim (only renamed) as the oracle that
// TestEventMatchesReference holds both front ends of runEvent to.

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// refEventMachine is the reference event-driven machine.
type refEventMachine struct {
	cfg    Config
	err    error
	engine *sim.Engine
	dc     *refDCache
}

func newRefEvent(cfg Config, engine *sim.Engine) *refEventMachine {
	m := &refEventMachine{cfg: cfg, err: cfg.Validate(), engine: engine}
	if m.err == nil {
		m.dc = newRefDCache(cfg)
	}
	return m
}

// refEntry is one in-flight instruction.
type refEntry struct {
	issued     bool
	complete   int64 // completion cycle once issued
	dst        uint8
	src1, src2 uint8
	lat        int64
	readyAt    int64 // earliest issue cycle (fetch + front-end depth)
	isBranch   bool
	mispredict bool
	wrongPath  bool // speculative; squashed at redirect, never retired
	valid      bool
}

// RunCtx is Run under a context: the cycle loop polls ctx periodically and
// stops early with Err set to ctx.Err() when cancelled, returning the
// partial result accumulated so far.
func (m *refEventMachine) RunCtx(ctx context.Context, src trace.Source, budget int64) Result {
	if m.err != nil {
		return Result{Err: m.err}
	}
	cfg := m.cfg
	var res Result
	deadlockAfter := cfg.DeadlockCycles
	if deadlockAfter <= 0 {
		deadlockAfter = DefaultDeadlockCycles
	}

	rob := make([]refEntry, cfg.Window)
	head, tail, occupancy := 0, 0, 0
	// issuedPrefix counts entries at the head of the ROB known to have
	// issued; the issue scan starts past them. It is a conservative lower
	// bound maintained incrementally (retire shrinks it, the scan grows it
	// while the issued run from the head stays contiguous), so skipping the
	// prefix never changes which entries issue or in what order.
	issuedPrefix := 0

	var (
		cycle        int64
		regReady     [64]int64
		fetchStalled bool  // a mispredicted branch is in flight
		redirectAt   int64 = -1
		done         bool
		r            trace.Record
		hasRec       bool
		correctOcc   int // non-speculative entries in flight
	)

	// Wrong-path support: only when configured and the source can do it.
	var wf WrongPathFetcher
	if cfg.ModelWrongPath {
		wf, _ = src.(WrongPathFetcher)
	}
	wrongActive := false  // wrong-path records still streaming
	wrongStarted := false // EndWrongPath owed at redirect

	// Deadlock guard: the simulation must retire something regularly.
	lastProgress := int64(0)

	for res.Instructions < budget || occupancy > 0 {
		// Retire up to Width completed instructions from the head.
		for retired := 0; retired < cfg.Width && occupancy > 0; retired++ {
			e := &rob[head]
			if !e.issued || e.complete > cycle || e.wrongPath {
				break
			}
			e.valid = false
			head++
			if head == cfg.Window {
				head = 0
			}
			occupancy--
			correctOcc--
			res.Instructions++
			lastProgress = cycle
			if issuedPrefix > 0 {
				issuedPrefix--
			}
		}

		// Issue: oldest-first, bounded by Width functional units. The scan
		// starts past the issued prefix — entries it would only skip — and
		// wraps with a compare instead of a modulo.
		issued := 0
		idx := head + issuedPrefix
		if idx >= cfg.Window {
			idx -= cfg.Window
		}
		contig := true
		for i := issuedPrefix; i < occupancy && issued < cfg.Width; i++ {
			e := &rob[idx]
			idx++
			if idx == cfg.Window {
				idx = 0
			}
			if e.issued {
				if contig {
					issuedPrefix++
				}
				continue
			}
			if e.readyAt > cycle ||
				(e.src1 != 0 && regReady[e.src1] > cycle) ||
				(e.src2 != 0 && regReady[e.src2] > cycle) {
				contig = false
				continue
			}
			e.issued = true
			e.complete = cycle + e.lat
			// Wrong-path results are renamed away; they never become
			// architecturally visible.
			if e.dst != 0 && !e.wrongPath {
				regReady[e.dst] = e.complete
			}
			if e.mispredict {
				redirectAt = e.complete + 1
			}
			issued++
			if contig {
				issuedPrefix++
			}
		}

		// Redirect: once the mispredicted branch has resolved, squash the
		// wrong path and resume fetch at the (known-correct) next trace
		// instruction.
		if fetchStalled && redirectAt >= 0 && cycle >= redirectAt {
			fetchStalled = false
			redirectAt = -1
			if wrongStarted {
				wf.EndWrongPath()
				wrongStarted, wrongActive = false, false
				hasRec = false // drop any buffered wrong-path record
			}
			for occupancy > 0 {
				prev := tail - 1
				if prev < 0 {
					prev = cfg.Window - 1
				}
				if !rob[prev].wrongPath {
					break
				}
				rob[prev].valid = false
				tail = prev
				occupancy--
			}
			if issuedPrefix > occupancy {
				issuedPrefix = occupancy
			}
		}

		// Fetch up to Width instructions: from the correct path normally,
		// or from the live wrong path while a misprediction is pending.
		for fetched := 0; fetched < cfg.Width && !done; fetched++ {
			wrongFetch := fetchStalled
			if wrongFetch && !wrongActive {
				break
			}
			if !wrongFetch && res.Instructions+int64(correctOcc) >= budget {
				break
			}
			if occupancy >= cfg.Window {
				break
			}
			if !hasRec {
				if !src.Next(&r) {
					if wrongFetch {
						wrongActive = false // the wrong path died
						break
					}
					done = true
					break
				}
				hasRec = true
			}
			e := &rob[tail]
			*e = refEntry{
				valid:     true,
				wrongPath: wrongFetch,
				dst:       r.Dst,
				src1:      r.Src1,
				src2:      r.Src2,
				lat:       cfg.Latencies[r.Op],
				readyAt:   cycle + int64(cfg.FrontEndDepth),
			}
			if r.Op == trace.OpLoad || r.Op == trace.OpStore {
				// Wrong-path accesses use the speculative machine's real
				// addresses: this is the cache pollution the flag models.
				if miss := m.dc.access(r.Addr); miss {
					res.DCacheMisses++
					if r.Op == trace.OpLoad {
						e.lat += cfg.MemLatency
					}
				}
				res.DCacheAccesses++
			}
			endGroup := false
			if r.Class.IsBranch() {
				if wrongFetch {
					// Wrong-path branches follow the speculative machine's
					// own outcomes; predictors are neither consulted nor
					// trained (no wrong-path predictor pollution).
					e.isBranch = true
					if r.Taken {
						endGroup = true
					}
				} else {
					res.Branches++
					e.isBranch = true
					p := m.engine.Predict(&r)
					correct := p.Correct(&r)
					// The resolve cycle is unknown until issue; stamp
					// telemetry events with the fetch cycle instead.
					m.engine.Tel.SetClock(cycle)
					m.engine.Resolve(&r, p)
					switch r.Class {
					case trace.ClassIndJump, trace.ClassIndCall:
						res.IndirectCount++
						if !correct {
							res.IndirectMispredicts++
						}
					case trace.ClassCondDirect:
						if !correct {
							res.CondMispredicts++
						}
					case trace.ClassReturn:
						if !correct {
							res.ReturnMispredicts++
						}
					}
					if !correct {
						res.Mispredicts++
						e.mispredict = true
						fetchStalled = true
						redirectAt = -1 // resolved when the branch issues
						endGroup = true
						if wf != nil {
							predicted := r.FallThrough()
							if p.Taken && p.HasTarget {
								predicted = p.Target
							}
							if predicted != r.NextPC() && wf.StartWrongPath(predicted) {
								wrongStarted, wrongActive = true, true
							}
						}
					} else if r.Taken {
						endGroup = true
					}
				}
			}
			tail++
			if tail == cfg.Window {
				tail = 0
			}
			occupancy++
			if !wrongFetch {
				correctOcc++
			}
			hasRec = false
			if endGroup {
				break
			}
		}

		if done && occupancy == 0 {
			break
		}
		cycle++
		if cycle&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				res.Err = err
				break
			}
		}
		if cycle-lastProgress > deadlockAfter {
			// A liveness failure is a model bug, not a crash: report it as
			// an error with enough machine state to debug, keeping the
			// partial counts.
			res.Err = fmt.Errorf("cpu: event model deadlock at cycle %d (occupancy %d, %d retired, window %d)",
				cycle, occupancy, res.Instructions, cfg.Window)
			break
		}
	}

	res.Cycles = cycle
	if res.Err == nil {
		res.Err = trace.SourceErr(src)
	}
	return res
}

// refDCache is the same 16KB data cache the fast model uses, factored so
// both models share behaviour exactly.
type refDCache struct {
	sets      int
	lineShift int
	tags      [][]uint64
	valid     [][]bool
	lru       [][]int64
	tick      int64
}

func newRefDCache(cfg Config) *refDCache {
	sets := cfg.DCacheBytes / (cfg.DCacheLine * cfg.DCacheWays)
	d := &refDCache{sets: sets, lineShift: lineShift(cfg)}
	d.tags = make([][]uint64, sets)
	d.valid = make([][]bool, sets)
	d.lru = make([][]int64, sets)
	for i := range d.tags {
		d.tags[i] = make([]uint64, cfg.DCacheWays)
		d.valid[i] = make([]bool, cfg.DCacheWays)
		d.lru[i] = make([]int64, cfg.DCacheWays)
	}
	return d
}

// access touches addr and reports whether it missed.
func (d *refDCache) access(addr uint64) bool {
	d.tick++
	line := addr >> d.lineShift
	set := int(line % uint64(d.sets))
	tag := line / uint64(d.sets)
	victim := 0
	for w := range d.tags[set] {
		if d.valid[set][w] && d.tags[set][w] == tag {
			d.lru[set][w] = d.tick
			return false
		}
		if !d.valid[set][w] {
			victim = w
		} else if d.valid[set][victim] && d.lru[set][w] < d.lru[set][victim] {
			victim = w
		}
	}
	d.tags[set][victim] = tag
	d.valid[set][victim] = true
	d.lru[set][victim] = d.tick
	return true
}
