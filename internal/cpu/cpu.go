// Package cpu is the cycle-level timing model standing in for the paper's
// HPS simulator: a wide-issue out-of-order machine with register-dependence
// scheduling (Tomasulo-style wakeup), per-class execution latencies
// (Table 3), a 16KB data cache, and checkpoint repair — once a branch
// misprediction is resolved, instructions from the correct path are fetched
// in the next cycle.
//
// The model is a one-pass trace-driven approximation: for each retired
// instruction it computes fetch, issue, completion and retire cycles under
// fetch-width, window-occupancy, operand-readiness, functional-unit and
// retire-width constraints. The predictor trains on committed state in
// trace order (wrong-path effects on predictor contents are not modelled,
// as is usual for trace-driven studies), so only each branch's mispredict
// bit reaches the pipeline, and the data cache sees every load and store
// in trace order. Machine.RunCtx, the reference, asks a sim.Engine for
// each branch as it goes. Over a capture the same model runs in two
// passes (pipeline.go): a predictor pass — the sim.Engine or a member of
// sim's fused gang kernel — records each branch's mispredict bit, and
// RunPipeline times the records from those bits and a data-cache miss bit
// per record, so the timing experiments see exactly the predictor
// behaviour the accuracy experiments measure. One RunPipeline call times
// a whole group of predictor passes on one machine: members whose
// pipeline states agree up to a time shift share one simulated lane.
//
// EventMachine (event.go) is the cycle-by-cycle validation model: one
// cycle loop with two front ends. RunCtx fetches from a trace source,
// asking its sim.Engine and data cache as it goes, and can fetch real
// wrong-path instructions from a live VM. A clean run over a capture —
// no wrong-path fetch — factors like the fast model's: RunEvent times it
// from a predictor pass's mispredict bits and the same miss bits, so the
// experiment suite makes each such run a gang member plus an event pass
// of its own.
package cpu

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config describes the machine.
type Config struct {
	// Width is the fetch, issue and retire bandwidth per cycle.
	Width int
	// Window is the maximum number of in-flight instructions ("the maximum
	// number of instructions that can exist in the machine at one time").
	Window int
	// FrontEndDepth is the number of cycles between fetch and earliest
	// issue; it sets the floor of the misprediction penalty.
	FrontEndDepth int
	// Latencies maps each functional-unit class to its execution latency
	// in cycles (Table 3).
	Latencies [trace.NumOpClasses]int64
	// MemLatency is the additional latency of a data-cache miss
	// ("latency for fetching data from memory is 10 cycles").
	MemLatency int64
	// DCacheBytes, DCacheWays and DCacheLine describe the data cache
	// (16KB in the paper; the instruction cache is perfect).
	DCacheBytes, DCacheWays, DCacheLine int
	// ModelWrongPath makes the event-driven model fetch and execute real
	// wrong-path instructions after a misprediction (requires a source
	// that implements WrongPathFetcher, e.g. vm.Looping): the wrong path
	// occupies fetch/issue bandwidth and pollutes the data cache with the
	// speculative machine's actual addresses, then is squashed at
	// resolution. The fast model ignores this flag.
	ModelWrongPath bool
	// DeadlockCycles is the event model's liveness guard: if no
	// instruction retires for this many consecutive cycles the run stops
	// with Result.Err describing the stall. 0 uses DefaultDeadlockCycles.
	DeadlockCycles int64
}

// DefaultDeadlockCycles is the event model's default liveness threshold.
const DefaultDeadlockCycles = 1_000_000

// DefaultConfig returns the paper's machine: 8-wide, 128-entry window,
// Table 3 latencies, 16KB 4-way data cache with a 10-cycle memory latency.
func DefaultConfig() Config {
	cfg := Config{
		Width:         8,
		Window:        128,
		FrontEndDepth: 5,
		MemLatency:    10,
		DCacheBytes:   16 * 1024,
		DCacheWays:    4,
		DCacheLine:    32,
	}
	cfg.Latencies[trace.OpInt] = 1
	cfg.Latencies[trace.OpFPAdd] = 3
	cfg.Latencies[trace.OpMul] = 3
	cfg.Latencies[trace.OpDiv] = 8
	cfg.Latencies[trace.OpLoad] = 1
	cfg.Latencies[trace.OpStore] = 1
	cfg.Latencies[trace.OpBitField] = 1
	cfg.Latencies[trace.OpBranch] = 1
	return cfg
}

// Validate reports the first field that makes c an impossible machine:
// a non-positive width or window, a negative depth or latency, or a data
// cache whose geometry does not divide into whole sets of power-of-two
// lines. Every run entry point checks it and returns its error in
// Result.Err before simulating.
func (c Config) Validate() error {
	switch {
	case c.Width < 1:
		return fmt.Errorf("cpu: machine width %d, want >= 1", c.Width)
	case c.Window < 1:
		return fmt.Errorf("cpu: instruction window %d, want >= 1", c.Window)
	case c.FrontEndDepth < 0:
		return fmt.Errorf("cpu: front-end depth %d, want >= 0", c.FrontEndDepth)
	case c.MemLatency < 0:
		return fmt.Errorf("cpu: memory latency %d, want >= 0", c.MemLatency)
	case c.DeadlockCycles < 0:
		return fmt.Errorf("cpu: deadlock guard %d cycles, want >= 0", c.DeadlockCycles)
	case c.DCacheLine < 1 || c.DCacheLine&(c.DCacheLine-1) != 0:
		return fmt.Errorf("cpu: data-cache line %d bytes, want a power of two", c.DCacheLine)
	case c.DCacheWays < 1:
		return fmt.Errorf("cpu: data-cache associativity %d, want >= 1", c.DCacheWays)
	case c.DCacheBytes < c.DCacheLine*c.DCacheWays || c.DCacheBytes%(c.DCacheLine*c.DCacheWays) != 0:
		return fmt.Errorf("cpu: data cache of %d bytes is not a whole number of %d-way sets of %d-byte lines",
			c.DCacheBytes, c.DCacheWays, c.DCacheLine)
	}
	for op, lat := range c.Latencies {
		if lat < 0 {
			return fmt.Errorf("cpu: %s latency %d, want >= 0", trace.OpClass(op), lat)
		}
	}
	return nil
}

// LatencyTable returns (class name, latency) rows for Table 3 reporting.
func (c Config) LatencyTable() [][2]string {
	rows := make([][2]string, 0, trace.NumOpClasses)
	for op := 0; op < trace.NumOpClasses; op++ {
		rows = append(rows, [2]string{
			trace.OpClass(op).String(),
			strconv.FormatInt(c.Latencies[op], 10),
		})
	}
	return rows
}

// Result reports one timing run.
type Result struct {
	Instructions int64
	Cycles       int64

	Branches            int64
	Mispredicts         int64
	IndirectCount       int64
	IndirectMispredicts int64
	CondMispredicts     int64
	ReturnMispredicts   int64

	DCacheAccesses int64
	DCacheMisses   int64

	// MispredictStallCycles counts fetch cycles lost to branch
	// misprediction (checkpoint-repair redirects); WindowStallCycles
	// counts fetch cycles lost waiting for window slots. Together they
	// locate where execution time goes — the breakdown behind the paper's
	// "reduction in execution time" results.
	MispredictStallCycles int64
	WindowStallCycles     int64

	// Err is non-nil when the run stopped early: a corrupt trace source
	// (wrapping trace.ErrCorrupt), a cancelled context, or the event
	// model's deadlock guard. The counters above cover the work done
	// before the stop.
	Err error
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// fuRing tracks per-cycle functional-unit occupancy without unbounded
// storage: entries are tagged with their cycle and lazily reset.
type fuRing struct {
	cycle []int64
	count []int
}

// fuRingLen is the functional-unit ring's length, a power of two: the
// span of issue cycles that can be in flight at once.
const (
	fuRingBits = 13
	fuRingLen  = 1 << fuRingBits
)

func newFURing(size int) *fuRing {
	return &fuRing{cycle: make([]int64, size), count: make([]int, size)}
}

func (f *fuRing) at(cycle int64) *int {
	i := int(cycle) & (len(f.count) - 1)
	if f.cycle[i] != cycle {
		f.cycle[i] = cycle
		f.count[i] = 0
	}
	return &f.count[i]
}

// Machine is a reusable timing simulator instance.
type Machine struct {
	cfg    Config
	err    error // cfg.Validate(): every run returns it without simulating
	engine *sim.Engine
	dcache *cache.Cache[struct{}]
	// observer, when set, receives every instruction's timing (used by
	// RunTimeline for pipeline diagrams).
	observer func(TimelineEntry)
}

// New returns a machine using cfg and the given prediction engine. An
// invalid cfg (see Config.Validate) yields a machine whose runs report
// the validation error.
func New(cfg Config, engine *sim.Engine) *Machine {
	m := &Machine{cfg: cfg, err: cfg.Validate(), engine: engine}
	if m.err == nil {
		m.dcache = newDCache(cfg)
	}
	return m
}

// newDCache builds cfg's data cache; cfg must be valid.
func newDCache(cfg Config) *cache.Cache[struct{}] {
	return cache.New[struct{}](cfg.DCacheBytes/(cfg.DCacheLine*cfg.DCacheWays), cfg.DCacheWays)
}

// lineShift is log2 of cfg's (power-of-two) data-cache line size.
func lineShift(cfg Config) int {
	shift := 0
	for 1<<shift < cfg.DCacheLine {
		shift++
	}
	return shift
}

// Run simulates up to budget instructions from src and returns the timing
// result. It may be called once per Machine.
func (m *Machine) Run(src trace.Source, budget int64) Result {
	return m.RunCtx(context.Background(), src, budget)
}

// ctxCheckMask sets how often the timing loop polls ctx.Err: every 8192
// instructions.
const ctxCheckMask = 1<<13 - 1

// RunCtx is Run under a context: the loop polls ctx on instruction-count
// boundaries and stops early with Err set to ctx.Err() when cancelled,
// returning the partial result accumulated so far.
func (m *Machine) RunCtx(ctx context.Context, src trace.Source, budget int64) Result {
	if m.err != nil {
		return Result{Err: m.err}
	}
	cfg := m.cfg
	var res Result

	var (
		fetchCycle   int64 // cycle the next instruction is fetched
		fetchedThis  int   // instructions fetched in fetchCycle
		lastRetire   int64 // retire cycle of the previous instruction
		retiredThis  int   // instructions retired in lastRetire
		regReady     [regSlots]int64
		windowRetire = make([]int64, cfg.Window) // ring: retire cycle per slot
		fus          = newFURing(fuRingLen)
		idx          int64
		r            trace.Record
	)

	shift := lineShift(cfg)

	for idx < budget && src.Next(&r) {
		if idx&ctxCheckMask == ctxCheckMask {
			if err := ctx.Err(); err != nil {
				res.Err = err
				break
			}
		}
		// Fetch: width and window constraints.
		if fetchedThis >= cfg.Width {
			fetchCycle++
			fetchedThis = 0
		}
		if oldest := windowRetire[idx%int64(cfg.Window)]; oldest > fetchCycle {
			// The slot's previous occupant retires at `oldest`; we can
			// occupy it the following cycle.
			res.WindowStallCycles += oldest + 1 - fetchCycle
			fetchCycle = oldest + 1
			fetchedThis = 0
		}
		fetched := fetchCycle
		fetchedThis++

		// Issue: operands, then a free functional unit.
		issue := fetched + int64(cfg.FrontEndDepth)
		if r.Src1 != 0 && regReady[r.Src1] > issue {
			issue = regReady[r.Src1]
		}
		if r.Src2 != 0 && regReady[r.Src2] > issue {
			issue = regReady[r.Src2]
		}
		for *fus.at(issue) >= cfg.Width {
			issue++
		}
		*fus.at(issue)++

		// Execute.
		lat := cfg.Latencies[r.Op]
		if r.Op == trace.OpLoad || r.Op == trace.OpStore {
			res.DCacheAccesses++
			set, tag := m.dcache.IndexOf(r.Addr >> shift)
			if _, hit := m.dcache.Lookup(set, tag); !hit {
				res.DCacheMisses++
				m.dcache.Insert(set, tag)
				if r.Op == trace.OpLoad {
					lat += cfg.MemLatency
				}
			}
		}
		complete := issue + lat
		if r.Dst != 0 {
			regReady[r.Dst] = complete
		}

		// Branch prediction and checkpoint repair.
		mispredicted := false
		if r.Class.IsBranch() {
			res.Branches++
			p := m.engine.Predict(&r)
			correct := p.Correct(&r)
			// Telemetry events from timing runs carry the branch's resolve
			// cycle. Nil-safe, one call per branch when enabled.
			m.engine.Tel.SetClock(complete)
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
				mispredicted = true
				// Checkpoint repair: correct-path fetch resumes the cycle
				// after the branch resolves.
				if complete+1 > fetchCycle {
					res.MispredictStallCycles += complete + 1 - fetchCycle
					fetchCycle = complete + 1
					fetchedThis = 0
				}
			} else if r.Taken {
				// A predicted-taken branch ends the fetch group.
				fetchedThis = cfg.Width
			}
		}

		// Retire: in order, Width per cycle.
		retire := complete
		if retire < lastRetire {
			retire = lastRetire
		}
		if retire == lastRetire {
			if retiredThis >= cfg.Width {
				retire++
				retiredThis = 1
			} else {
				retiredThis++
			}
		} else {
			retiredThis = 1
		}
		lastRetire = retire
		windowRetire[idx%int64(cfg.Window)] = retire

		if m.observer != nil {
			m.observer(TimelineEntry{
				Record:     r,
				Fetch:      fetched,
				Issue:      issue,
				Complete:   complete,
				Retire:     retire,
				Mispredict: mispredicted,
			})
		}

		idx++
	}

	res.Instructions = idx
	res.Cycles = lastRetire + 1
	if res.Err == nil {
		res.Err = trace.SourceErr(src)
	}
	return res
}

// Run is a convenience wrapper: build a machine over cfg and engine, run
// src for budget instructions.
func Run(src trace.Source, budget int64, engine *sim.Engine, cfg Config) Result {
	return New(cfg, engine).Run(src, budget)
}
