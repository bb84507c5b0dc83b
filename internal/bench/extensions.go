package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The paper's future work, made concrete: "for object oriented programs
// where more indirect branches may be executed, tagged caches should
// provide even greater performance benefits. In the future, we will
// evaluate the performance benefit of target caches for C++ benchmarks."
var cxxExperiment = registerExperiment(&Experiment{
	ID:    "cxx",
	Title: "Future work: target caches on a C++-style virtual-call workload",
	Run: func(p Params) []*stats.Table {
		w, err := workload.ByName("cxx")
		if err != nil {
			panic(err)
		}
		tctx := newTimingContext(p)

		// Virtual-call targets correlate with the *path* of recent call
		// targets (composite object structure), so all variants here use
		// ind-jmp path history; tagged caches can store history beyond
		// the index width in their tags — the paper's conjecture.
		mkPath := func(bits, bitsPerTarget int) func() history.Provider {
			return path(history.PathConfig{
				Bits: bits, BitsPerTarget: bitsPerTarget, AddrBitOffset: 2,
				Filter: history.FilterIndJmp,
			})
		}
		mkTagged := func(ways, histBits int) func() core.TargetCache {
			return func() core.TargetCache {
				return core.NewTagged(core.TaggedConfig{
					Entries: 256, Ways: ways,
					Scheme: core.SchemeHistoryXor, HistBits: histBits,
				})
			}
		}
		variants := []struct {
			name string
			cfg  sim.Config
		}{
			{"tagless gshare (512), path 9x1", tcConfig(taglessGshare(512), mkPath(9, 1))},
			{"tagless gshare (512), path 9x3", tcConfig(taglessGshare(512), mkPath(9, 3))},
			{"tagged xor (256, 4-way), path 9x3", tcConfig(mkTagged(4, 9), mkPath(9, 3))},
			{"tagged xor (256, 4-way), path 16x4", tcConfig(mkTagged(4, 16), mkPath(16, 4))},
			{"tagged xor (256, 16-way), path 24x2", tcConfig(mkTagged(16, 24), mkPath(24, 2))},
			{"ittage, path 64x4", tcConfig(func() core.TargetCache {
				return core.NewITTAGE(core.DefaultITTAGEConfig())
			}, mkPath(64, 4))},
		}

		g := newCellGroup(p)
		warmBaselines(g, tctx, []*workload.Workload{w})
		baseRate := accuracyCell(g, cid(w, "btb"), w, 0, sim.DefaultConfig())
		accs := make([]*slot[*sim.AccuracyResult], len(variants))
		reds := make([]*slot[float64], len(variants))
		for i, v := range variants {
			accs[i] = accuracyCell(g, cid(w, v.name+"/accuracy"), w, 0, v.cfg)
			reds[i] = cell(g, cid(w, v.name+"/timing"), func(p Params) float64 { return tctx.reduction(p, w, v.cfg) })
		}
		g.run()

		t := stats.NewTable(
			"C++-style workload (virtual calls through vtables): misprediction and execution time",
			"Predictor", "ind mispred", "time saved")
		t.AddRow("BTB (1K, 4-way)", rateCell(baseRate), "-")
		for i, v := range variants {
			t.AddRow(v.name, rateCell(accs[i]), pctCell(reds[i]))
		}
		t.AddNote("paper conclusion: for OO programs, tagged caches should provide even greater benefits")
		t.AddNote("tags hold history beyond the index width: the 16-way/24-bit tagged cache and ITTAGE exploit it")
		return g.finish([]*stats.Table{t})
	},
})

// Follow-up designs that grew out of this paper: the cascaded predictor
// (Driesen & Hölzle 1998) and an ITTAGE-style predictor (Seznec 2011),
// compared on all nine workloads against the paper's structures.
var followupsExperiment = registerExperiment(&Experiment{
	ID:    "followups",
	Title: "Lineage: target cache vs cascaded predictor vs ITTAGE-style (misprediction rate)",
	Run: func(p Params) []*stats.Table {
		tcCfg := tcConfig(func() core.TargetCache {
			return core.NewTagged(core.TaggedConfig{
				Entries: 256, Ways: 4, Scheme: core.SchemeHistoryXor, HistBits: 9,
			})
		}, pattern(9))
		hybridCfg := tcConfig(func() core.TargetCache {
			return core.DefaultChooser()
		}, pattern(9))
		cascCfg := tcConfig(func() core.TargetCache {
			return core.NewCascaded(core.DefaultCascadedConfig())
		}, pattern(9))
		ittageCfg := tcConfig(func() core.TargetCache {
			return core.NewITTAGE(core.DefaultITTAGEConfig())
		}, path(history.PathConfig{
			Bits: 64, BitsPerTarget: 1, AddrBitOffset: 2,
			Filter: history.FilterControl,
		}))

		ws := workload.All()
		ws = append(ws, workload.Extras()...)
		configs := []sim.Config{sim.DefaultConfig(), tcCfg, hybridCfg, cascCfg, ittageCfg}
		cfgNames := []string{"btb", "target-cache", "hybrid", "cascaded", "ittage"}
		g := newCellGroup(p)
		rates := make([][]*slot[*sim.AccuracyResult], len(ws))
		for i, w := range ws {
			rates[i] = make([]*slot[*sim.AccuracyResult], len(configs))
			for j, cfg := range configs {
				rates[i][j] = accuracyCell(g, cid(w, cfgNames[j]), w, 0, cfg)
			}
		}
		g.run()
		t := stats.NewTable(
			"Indirect-jump misprediction rate (all with 1K 4-way BTB front end)",
			"Benchmark", "BTB only", "target cache", "hybrid", "cascaded", "ittage")
		for i, w := range ws {
			row := []string{w.Name}
			for j := range configs {
				row = append(row, rateCell(rates[i][j]))
			}
			t.AddRow(row...)
		}
		t.AddNote("hybrid = last-target + tagged cache with a 2-bit meta chooser; cascaded = filtered 2-stage (Driesen & Hölzle); ittage = geometric-history tables (Seznec)")
		return g.finish([]*stats.Table{t})
	},
})

// Wrong-path execution: the event-driven model can fetch and execute real
// speculative instructions after each misprediction (vm-backed workloads
// expose checkpoint/rollback), so mispredicted indirect jumps also pollute
// the data cache. This experiment measures whether the paper's headline —
// the target cache's execution-time reduction — survives that added
// fidelity.
//
// These cells deliberately bypass the trace memo: wrong-path fetch needs a
// live VM (checkpoint/rollback through cpu.WrongPathFetcher), which a
// replay cursor cannot provide. Each cell opens its own VM instance, so
// the cells stay independent and race-free.
var wrongPathExperiment = registerExperiment(&Experiment{
	ID:    "wrongpath",
	Title: "Ablation: wrong-path fetch modeling (event-driven model)",
	Run: func(p Params) []*stats.Table {
		tcCfg := tcConfig(taglessGshare(512), pattern(9))
		ws := workload.PerlGcc()
		type wpCell struct{ baseClean, tcClean, baseWP, tcWP *slot[cpu.Result] }
		g := newCellGroup(p)
		cells := make([]wpCell, len(ws))
		for i, w := range ws {
			run := func(p Params, cfg sim.Config, wrongPath bool) cpu.Result {
				col := p.startCollector()
				defer p.mergeCollector(col)
				cfg.Telemetry = col
				mc := cpu.DefaultConfig()
				mc.ModelWrongPath = wrongPath
				res := cpu.NewEvent(mc, sim.NewEngine(cfg)).RunCtx(p.Context(), w.Open(), p.TimingBudget)
				instructionsSim.Add(res.Instructions)
				if res.Err != nil {
					abortCell(res.Err)
				}
				return res
			}
			cells[i] = wpCell{
				baseClean: cell(g, cid(w, "btb"), func(p Params) cpu.Result { return run(p, sim.DefaultConfig(), false) }),
				tcClean:   cell(g, cid(w, "tc"), func(p Params) cpu.Result { return run(p, tcCfg, false) }),
				baseWP:    cell(g, cid(w, "btb-wrongpath"), func(p Params) cpu.Result { return run(p, sim.DefaultConfig(), true) }),
				tcWP:      cell(g, cid(w, "tc-wrongpath"), func(p Params) cpu.Result { return run(p, tcCfg, true) }),
			}
		}
		g.run()
		// Each column needs two cells; an ERR in either blanks just that
		// column.
		redCol := func(a, b *slot[cpu.Result]) string {
			if !a.ok() || !b.ok() {
				return "ERR"
			}
			return pct(stats.Reduction(float64(a.val.Cycles), float64(b.val.Cycles)))
		}
		t := stats.NewTable(
			"Execution-time reduction with and without wrong-path fetch (event model)",
			"Benchmark", "reduction (no wrong path)", "reduction (wrong path)",
			"extra dcache accesses")
		for i, w := range ws {
			c := cells[i]
			extra := "ERR"
			if c.baseWP.ok() && c.baseClean.ok() {
				extra = pct(float64(c.baseWP.val.DCacheAccesses)/float64(c.baseClean.val.DCacheAccesses) - 1)
			}
			t.AddRow(w.Name,
				redCol(c.baseClean, c.tcClean),
				redCol(c.baseWP, c.tcWP),
				extra)
		}
		t.AddNote("wrong-path loads use the speculative machine's real addresses (VM checkpoint/rollback)")
		return g.finish([]*stats.Table{t})
	},
})

// Context switches wipe predictor state; this ablation resets the whole
// front end every N instructions and reports the indirect misprediction
// rate, quantifying how much of the target cache's advantage survives
// frequent switching (a standard objection to history-based predictors).
var contextSwitchExperiment = registerExperiment(&Experiment{
	ID:    "context-switch",
	Title: "Ablation: predictor flush interval vs indirect misprediction rate",
	Run: func(p Params) []*stats.Table {
		tcCfg := tcConfig(taglessGshare(512), pattern(9))
		ws := workload.PerlGcc()
		intervals := []int64{0, 1_000_000, 100_000, 10_000, 1_000}
		type csCell struct{ base, tc *slot[*sim.AccuracyResult] }
		g := newCellGroup(p)
		cells := make([][]csCell, len(ws))
		for i, w := range ws {
			cells[i] = make([]csCell, len(intervals))
			for j, interval := range intervals {
				cells[i][j] = csCell{
					base: accuracyCell(g, cid(w, fmt.Sprintf("btb/flush-%d", interval)), w, interval, sim.DefaultConfig()),
					tc:   accuracyCell(g, cid(w, fmt.Sprintf("tc/flush-%d", interval)), w, interval, tcCfg),
				}
			}
		}
		g.run()
		var out []*stats.Table
		for i, w := range ws {
			t := stats.NewTable(
				fmt.Sprintf("Context switches (%s): flush interval vs indirect misprediction", w.Name),
				"flush every", "BTB", "target cache")
			for j, interval := range intervals {
				label := "never"
				if interval > 0 {
					label = fmt.Sprintf("%d instr", interval)
				}
				t.AddRow(label, rateCell(cells[i][j].base), rateCell(cells[i][j].tc))
			}
			t.AddNote("a history-indexed cache must re-learn one entry per (jump, history) pair after each flush")
			out = append(out, t)
		}
		return g.finish(out)
	},
})

// The paper handles returns with a return address stack rather than the
// target cache ("they are effectively handled with the return address
// stack"); this ablation quantifies that choice: how deep must the RAS be
// before return mispredictions vanish on recursion-heavy workloads?
var rasExperiment = registerExperiment(&Experiment{
	ID:    "ras",
	Title: "Ablation: return address stack depth vs return misprediction rate",
	Run: func(p Params) []*stats.Table {
		names := []string{"xlisp", "gosearch", "perl"}
		depths := []int{1, 2, 4, 8, 16, 32, 64}
		g := newCellGroup(p)
		rates := make([][]*slot[*sim.AccuracyResult], len(depths))
		for i, depth := range depths {
			cfg := sim.DefaultConfig()
			cfg.RASDepth = depth
			rates[i] = make([]*slot[*sim.AccuracyResult], len(names))
			for j, name := range names {
				w, err := workload.ByName(name)
				if err != nil {
					panic(err)
				}
				rates[i][j] = accuracyCell(g, cid(w, fmt.Sprintf("ras-%d", depth)), w, 0, cfg)
			}
		}
		g.run()
		t := stats.NewTable(
			"Return misprediction rate by RAS depth",
			append([]string{"RAS depth"}, names...)...)
		for i, depth := range depths {
			row := []string{fmt.Sprintf("%d", depth)}
			for j := range names {
				text := "ERR"
				if s := rates[i][j]; s.ok() {
					text = pct(s.val.Returns.MispredictRate())
				}
				row = append(row, text)
			}
			t.AddRow(row...)
		}
		t.AddNote("the paper's decision to exclude returns from the target cache presumes a deep-enough RAS")
		return g.finish([]*stats.Table{t})
	},
})

// Sensitivity of the target cache's benefit to machine aggressiveness —
// the paper's introduction in experiment form: "as the issue rate and
// pipeline depth of high performance superscalar processors increase, the
// amount of speculative work issued also increases", so better indirect
// prediction matters more on wider, deeper machines.
var sensitivityExperiment = registerExperiment(&Experiment{
	ID:    "sensitivity",
	Title: "Ablation: execution-time reduction vs machine aggressiveness",
	Run: func(p Params) []*stats.Table {
		machines := []struct {
			name   string
			mutate func(*cpu.Config)
		}{
			{"2-wide, 32-window, depth 3", func(c *cpu.Config) {
				c.Width, c.Window, c.FrontEndDepth = 2, 32, 3
			}},
			{"4-wide, 64-window, depth 4", func(c *cpu.Config) {
				c.Width, c.Window, c.FrontEndDepth = 4, 64, 4
			}},
			{"8-wide, 128-window, depth 5 (paper)", func(c *cpu.Config) {}},
			{"16-wide, 256-window, depth 8", func(c *cpu.Config) {
				c.Width, c.Window, c.FrontEndDepth = 16, 256, 8
			}},
			{"16-wide, 256-window, depth 14", func(c *cpu.Config) {
				c.Width, c.Window, c.FrontEndDepth = 16, 256, 14
			}},
		}
		tcCfg := tcConfig(taglessGshare(512), pattern(9))
		ws := workload.PerlGcc()
		type sensCell struct{ base, tc *slot[cpu.Result] }
		g := newCellGroup(p)
		cells := make([][]sensCell, len(ws))
		for i, w := range ws {
			cells[i] = make([]sensCell, len(machines))
			for j, m := range machines {
				machineCfg := cpu.DefaultConfig()
				m.mutate(&machineCfg)
				cells[i][j] = sensCell{
					base: cell(g, cid(w, fmt.Sprintf("machine%d/btb", j)), func(p Params) cpu.Result {
						return runTiming(w, p, sim.DefaultConfig(), machineCfg)
					}),
					tc: cell(g, cid(w, fmt.Sprintf("machine%d/tc", j)), func(p Params) cpu.Result {
						return runTiming(w, p, tcCfg, machineCfg)
					}),
				}
			}
		}
		g.run()
		var out []*stats.Table
		for i, w := range ws {
			t := stats.NewTable(
				fmt.Sprintf("Sensitivity (%s): target-cache benefit by machine", w.Name),
				"machine", "base IPC", "tc IPC", "time saved", "mispredict stall share")
			for j, m := range machines {
				c := cells[i][j]
				if !c.base.ok() || !c.tc.ok() {
					row := append([]string{m.name}, errRow(4)...)
					if c.base.ok() {
						row[1] = fmt.Sprintf("%.2f", c.base.val.IPC())
						row[4] = pct(float64(c.base.val.MispredictStallCycles) / float64(c.base.val.Cycles))
					} else if c.tc.ok() {
						row[2] = fmt.Sprintf("%.2f", c.tc.val.IPC())
					}
					t.AddRow(row...)
					continue
				}
				base, tc := c.base.val, c.tc.val
				t.AddRow(m.name,
					fmt.Sprintf("%.2f", base.IPC()),
					fmt.Sprintf("%.2f", tc.IPC()),
					pct(stats.Reduction(float64(base.Cycles), float64(tc.Cycles))),
					pct(float64(base.MispredictStallCycles)/float64(base.Cycles)))
			}
			t.AddNote("paper intro: wider/deeper machines lose more to indirect-jump mispredictions")
			out = append(out, t)
		}
		return g.finish(out)
	},
})
