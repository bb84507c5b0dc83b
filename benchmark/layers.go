package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dirpred"
	"repro/internal/history"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The layers phase of a traced run calls each layer's public functions
// directly, over the workload's own programs and predictor configurations,
// and times each from outside: no code outside this package changes to
// measure it. Every metric is the median of layerPasses passes, each over
// the same inputs, run on one goroutine; only the pool runs on every
// worker.

const (
	layerPasses = 5
	poolItems   = 1 << 16
	// gangWidth is the width the sweep engine's automatic planner picks
	// for every gang of the generated grids (its cap), so the gang metric
	// prices the members the way sweep-fused runs them.
	gangWidth = 16
)

// layerConfigs are the programs a workload simulates and the predictor
// configurations it runs, as sweep points so that one constructor
// (Point.SimConfig) builds them all.
type layerConfigs struct {
	progs    []*workload.Workload
	families map[string]sweep.Point // tagless, tagged, cascaded, ittage
	gang     []sweep.Point          // gangWidth points sharing one history
	spec     *sweep.Spec            // grid the sweep layer expands and plans
}

// taglessGang is p at table sizes 64 to 8192, each used twice.
func taglessGang(p sweep.Point) []sweep.Point {
	g := make([]sweep.Point, gangWidth)
	for i := range g {
		g[i] = p
		g[i].Entries = 64 << (i % 8)
	}
	return g
}

// sink keeps the compiler from discarding loops whose results are unused.
var sink uint64

// indirectJump is one target-cache access: the jump, the history value it
// was fetched under and its resolved target.
type indirectJump struct{ pc, hist, target uint64 }

func runLayers(e env, lc layerConfigs) (map[string]float64, error) {
	progs := lc.progs
	n := e.sc.layerRecords / int64(len(progs))
	caps := make([]*trace.Replay, len(progs))
	recs := make([][]trace.Record, len(progs))
	for i, w := range progs {
		caps[i] = trace.Capture(trace.NewLimit(w.Open(), n))
		recs[i] = trace.Collect(caps[i].Open())
	}
	var records int64
	for _, r := range recs {
		records += int64(len(r))
	}

	soloCfg, err := lc.families["tagless"].SimConfig()
	if err != nil {
		return nil, err
	}
	gang := make([]sim.GangPoint, len(lc.gang))
	for i, p := range lc.gang {
		cfg, err := p.SimConfig()
		if err != nil {
			return nil, err
		}
		gang[i] = sim.GangPoint{Config: cfg, HistShare: fmt.Sprintf("%s#%d", p.History, p.HistBits)}
	}

	// Each target-cache family replays the indirect jumps under its own
	// history, computed once here so the timed loop is only the cache.
	type family struct {
		name  string
		newTC func() core.TargetCache
		jumps [][]indirectJump
	}
	var fams []*family
	for _, name := range []string{"tagless", "tagged", "cascaded", "ittage", "chooser"} {
		newTC, newHist := func() core.TargetCache { return core.DefaultChooser() },
			func() history.Provider { return history.NewPatternProvider(9) }
		if name != "chooser" {
			cfg, err := lc.families[name].SimConfig()
			if err != nil {
				return nil, err
			}
			newTC, newHist = cfg.NewTargetCache, cfg.NewHistory
		}
		f := &family{name: name, newTC: newTC}
		for _, rs := range recs {
			h := newHist()
			var js []indirectJump
			for i := range rs {
				r := &rs[i]
				if r.Class.IsTargetCachePredicted() {
					js = append(js, indirectJump{r.PC, h.Value(r.PC), r.Target})
				}
				h.Observe(r)
			}
			f.jumps = append(f.jumps, js)
		}
		fams = append(fams, f)
	}

	histories := []struct {
		name string
		make func() history.Provider
	}{
		{"history.pattern.ns_per_record", func() history.Provider { return history.NewPatternProvider(9) }},
		{"history.path.ns_per_record", func() history.Provider {
			return history.NewPath(history.PathConfig{Bits: 9, BitsPerTarget: 1, AddrBitOffset: 2, Filter: history.FilterIndJmp})
		}},
		{"history.path_peraddr.ns_per_record", func() history.Provider {
			return history.NewPath(history.PathConfig{Bits: 9, BitsPerTarget: 1, AddrBitOffset: 2, PerAddress: true})
		}},
	}

	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	per := func(d time.Duration, count int64) float64 { return float64(d.Nanoseconds()) / float64(count) }
	storePaths := make([]string, len(progs))
	for i := range progs {
		storePaths[i] = filepath.Join(e.tmp, fmt.Sprintf("layer-%d.tcstore", i))
	}
	var ms0, ms1 runtime.MemStats

	for pass := 0; pass < layerPasses; pass++ {
		// vm: execute the programs.
		t := time.Now()
		var instrs int64
		for _, w := range progs {
			src := vm.NewLooping(w.Program())
			var r trace.Record
			for i := int64(0); i < n && src.Next(&r); i++ {
				instrs++
			}
		}
		add("vm.ns_per_instr", per(time.Since(t), instrs))

		// workload: capture into an empty memo (in memory: cold-spill's
		// cleanup has turned spilling off again).
		workload.ResetMemo()
		runtime.GC()
		t = time.Now()
		for _, w := range progs {
			w.Replay(n)
		}
		add("workload.capture.ns_per_instr", per(time.Since(t), records))
		workload.ResetMemo()

		// trace: write each capture to a store file, read it back, and
		// read the in-memory capture the same way.
		var wrote, written int64
		t = time.Now()
		for i, c := range caps {
			k, size, err := writeStore(storePaths[i], c)
			if err != nil {
				return nil, err
			}
			wrote += k
			written += size
		}
		add("trace.write.ns_per_record", per(time.Since(t), wrote))
		add("trace.write.bytes_per_record", float64(written)/float64(wrote))

		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t = time.Now()
		for _, path := range storePaths {
			s, err := trace.OpenStoreFile(path, 0)
			if err != nil {
				return nil, err
			}
			err = readBlocks(s)
			s.Close()
			if err != nil {
				return nil, err
			}
		}
		d := time.Since(t)
		runtime.ReadMemStats(&ms1)
		add("trace.read_store.ns_per_record", per(d, records))
		add("trace.read_store.alloc_b_per_record", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(records))

		t = time.Now()
		for _, c := range caps {
			if err := readBlocks(c); err != nil {
				return nil, err
			}
		}
		add("trace.read_mem.ns_per_record", per(time.Since(t), records))

		// history: observe every record, read the value at each indirect jump.
		for _, h := range histories {
			t = time.Now()
			for _, rs := range recs {
				p := h.make()
				for i := range rs {
					r := &rs[i]
					if r.Class.IsTargetCachePredicted() {
						sink ^= p.Value(r.PC)
					}
					p.Observe(r)
				}
			}
			add(h.name, per(time.Since(t), records))
		}

		// btb: probe every branch and train it.
		var branches, hits int64
		t = time.Now()
		for _, rs := range recs {
			b := btb.New(btb.DefaultConfig())
			for i := range rs {
				r := &rs[i]
				if !r.Class.IsBranch() {
					continue
				}
				branches++
				if _, h, ok := b.Probe(r.PC); ok {
					hits++
					b.UpdateHit(h, r)
				} else {
					b.Update(r)
				}
			}
		}
		add("btb.ns_per_branch", per(time.Since(t), branches))
		add("btb.hit_ratio", float64(hits)/float64(branches))

		// dirpred: predict and train every conditional branch.
		var conds, right int64
		t = time.Now()
		for _, rs := range recs {
			p := dirpred.New(dirpred.DefaultConfig())
			for i := range rs {
				r := &rs[i]
				if r.Class != trace.ClassCondDirect {
					continue
				}
				conds++
				if p.Predict(r.PC) == r.Taken {
					right++
				}
				p.Update(r.PC, r.Taken)
			}
		}
		add("dirpred.ns_per_cond", per(time.Since(t), conds))
		add("dirpred.correct_ratio", float64(right)/float64(conds))

		// core: predict and update at every indirect jump.
		for _, f := range fams {
			var jumps, correct int64
			t = time.Now()
			for _, js := range f.jumps {
				tc := f.newTC()
				for _, j := range js {
					if tgt, ok := tc.Predict(j.pc, j.hist); ok && tgt == j.target {
						correct++
					}
					tc.Update(j.pc, j.hist, j.target)
				}
				jumps += int64(len(js))
			}
			add("core."+f.name+".ns_per_indirect", per(time.Since(t), jumps))
			add("core."+f.name+".correct_ratio", float64(correct)/float64(jumps))
		}

		// sim: the solo and gang accuracy kernels, and the solo kernel over
		// the BTB-only baseline front end.
		t = time.Now()
		for _, c := range caps {
			if r := sim.RunAccuracy(c, n, soloCfg); r.Err != nil {
				return nil, r.Err
			}
		}
		add("sim.solo.ns_per_instr", per(time.Since(t), records))

		t = time.Now()
		for _, c := range caps {
			if r := sim.RunAccuracy(c, n, sim.DefaultConfig()); r.Err != nil {
				return nil, r.Err
			}
		}
		add("sim.baseline.ns_per_instr", per(time.Since(t), records))

		var fallbacks int64
		t = time.Now()
		for _, c := range caps {
			rs, ok := sim.RunAccuracyGang(c, n, gang)
			if !ok {
				fallbacks++
				continue
			}
			for _, r := range rs {
				if r.Err != nil {
					return nil, r.Err
				}
			}
		}
		add("sim.gang.ns_per_member_instr", per(time.Since(t), records*int64(len(gang))))
		add("sim.gang.fallbacks", float64(fallbacks))

		// cpu: the fast timing model and, over a quarter of the records,
		// the event-driven one.
		t = time.Now()
		for _, c := range caps {
			if r := cpu.New(cpu.DefaultConfig(), sim.NewEngine(soloCfg)).RunReplayCtx(e.ctx, c, n); r.Err != nil {
				return nil, r.Err
			}
		}
		add("cpu.replay.ns_per_instr", per(time.Since(t), records))
		var evInstrs int64
		t = time.Now()
		for _, c := range caps {
			r := cpu.NewEvent(cpu.DefaultConfig(), sim.NewEngine(soloCfg)).RunCtx(e.ctx, c.Open(), n/4)
			if r.Err != nil {
				return nil, r.Err
			}
			evInstrs += r.Instructions
		}
		add("cpu.event.ns_per_instr", per(time.Since(t), evInstrs))

		// pool: hand no-op items to every worker, so the cost is the pool's
		// own hand-out.
		t = time.Now()
		pool.Run(workers, poolItems, func(int) {})
		add("pool.ns_per_item", per(time.Since(t), poolItems))

		// sweep: expand the grid and plan its gangs.
		t = time.Now()
		ex, err := lc.spec.Expand()
		if err != nil {
			return nil, err
		}
		add("sweep.expand_ms", ms(time.Since(t)))
		t = time.Now()
		plans := sweep.PlanGangs(ex.Points, 0, 0)
		add("sweep.plan_ms", ms(time.Since(t)))
		var points, passes int
		for _, p := range plans {
			points += p.Points
			passes += p.Passes
		}
		add("sweep.passes_avoided_ratio", float64(points-passes)/float64(points))
	}
	for _, path := range storePaths {
		os.Remove(path)
	}

	out := make(map[string]float64, len(samples))
	for k, vs := range samples {
		out[k] = median(vs)
	}
	return out, nil
}

// writeStore writes c to a compressed store file at path and returns the
// records written and the file size.
func writeStore(path string, c *trace.Replay) (int64, int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	k, err := trace.WriteStore(f, c.Open(), trace.StoreOptions{Compress: true})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, fmt.Errorf("writing %s: %w", path, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return k, st.Size(), nil
}

// readBlocks fetches every block of bs and reads two of its columns, the
// access pattern of the accuracy kernels.
func readBlocks(bs trace.BlockSource) error {
	for i := 0; i < bs.NumBlocks(); i++ {
		b, err := bs.BlockAt(i)
		if err != nil {
			return err
		}
		for j, pc := range b.PC {
			sink += pc ^ uint64(b.Meta[j])
		}
	}
	return nil
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
