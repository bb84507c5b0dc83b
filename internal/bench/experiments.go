package bench

import (
	"fmt"

	"repro/internal/btb"
	"repro/internal/cbt"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Every experiment below follows the same shape: enqueue one cell per
// independent simulation (a pure function of a memoized trace replay and a
// predictor config), run the group on the bounded worker pool — which
// fuses the cells' accuracy runs that share a workload, flush interval
// and front end into one pass — then render the tables serially from the
// result slots in enqueue order, which keeps the output byte-identical to
// serial execution.

// Table 1: per-benchmark counts and the baseline BTB's indirect-jump
// misprediction rate.
var table1 = registerExperiment(&Experiment{
	ID:    "table1",
	Title: "Table 1: benchmark characteristics and BTB indirect-jump misprediction rates",
	Run: func(p Params) []*stats.Table {
		ws := workload.All()
		g := newCellGroup(p)
		// Each cell runs the BTB and, as its own pass, counts the static
		// indirect jumps.
		cells := make([]*slot[int], len(ws))
		results := make([]*sim.AccuracyResult, len(ws))
		for i, w := range ws {
			cells[i] = cell(g, cid(w, "btb"), func(p Params) int {
				return runTraceStats(w, p).StaticIndJumps()
			})
			results[i] = cells[i].accuracy(w, 0, sim.DefaultConfig())
		}
		g.run()
		t := stats.NewTable(
			"Table 1: 1K-entry 4-way BTB, default update strategy",
			"Benchmark", "#Instructions", "#Branches", "#Ind Jumps",
			"Static Ind", "Ind. Jump Mispred. Rate")
		for i, w := range ws {
			if !cells[i].ok() {
				t.AddRow(append([]string{w.Name}, errRow(5)...)...)
				continue
			}
			res := results[i]
			t.AddRow(w.Name,
				fmt.Sprintf("%d", res.Instructions),
				fmt.Sprintf("%d", res.Branches),
				fmt.Sprintf("%d", res.Indirect.Predictions),
				fmt.Sprintf("%d", cells[i].val),
				pct(res.IndirectMispredictRate()))
		}
		t.AddNote("paper: gcc 66.0%% and perl 76.4%% — the two benchmarks with significant indirect jumps")
		return g.finish([]*stats.Table{t})
	},
})

// Figures 1-8: number of distinct dynamic targets per static indirect jump.
var figures1to8 = registerExperiment(&Experiment{
	ID:    "figures1-8",
	Title: "Figures 1-8: number of targets per indirect jump",
	Run: func(p Params) []*stats.Table {
		ws := workload.All()
		g := newCellGroup(p)
		cells := make([]*slot[*trace.Stats], len(ws))
		for i, w := range ws {
			cells[i] = cell(g, cid(w, "trace-stats"), func(p Params) *trace.Stats { return runTraceStats(w, p) })
		}
		g.run()
		var out []*stats.Table
		for i, w := range ws {
			if !cells[i].ok() {
				t := stats.NewTable(
					fmt.Sprintf("Figure %d: targets per indirect jump (%s)", i+1, w.Name),
					"#Targets", "% of static jumps", "% of dynamic jumps")
				t.AddRow(errRow(3)...)
				out = append(out, t)
				continue
			}
			st := cells[i].val
			static := st.TargetHistogram(false)
			dynamic := st.TargetHistogram(true)
			var nStatic, nDynamic int64
			for b := 1; b <= trace.TargetHistogramCap; b++ {
				nStatic += static[b]
				nDynamic += dynamic[b]
			}
			t := stats.NewTable(
				fmt.Sprintf("Figure %d: targets per indirect jump (%s)", i+1, w.Name),
				"#Targets", "% of static jumps", "% of dynamic jumps")
			bar := &stats.BarChart{
				Title: fmt.Sprintf("Figure %d (%s): %% of dynamic indirect jumps by target count", i+1, w.Name),
			}
			for b := 1; b <= trace.TargetHistogramCap; b++ {
				if static[b] == 0 && dynamic[b] == 0 {
					continue
				}
				label := fmt.Sprintf("%d", b)
				if b == trace.TargetHistogramCap {
					label = fmt.Sprintf(">=%d", b)
				}
				dynFrac := float64(dynamic[b]) / float64(max64(nDynamic, 1))
				t.AddRow(label,
					pct(float64(static[b])/float64(max64(nStatic, 1))),
					pct(dynFrac))
				bar.Add(label, dynFrac)
			}
			t.Trailer = bar.String()
			out = append(out, t)
		}
		return g.finish(out)
	},
})

// Table 2: the Calder & Grunwald 2-bit BTB update strategy versus the
// default strategy.
var table2 = registerExperiment(&Experiment{
	ID:    "table2",
	Title: "Table 2: performance of the 2-bit BTB update strategy",
	Run: func(p Params) []*stats.Table {
		ws := workload.All()
		twoBit := sim.DefaultConfig()
		twoBit.BTB.Strategy = btb.StrategyTwoBit
		g := newCellGroup(p)
		defs := make([]*slot[*sim.AccuracyResult], len(ws))
		twos := make([]*slot[*sim.AccuracyResult], len(ws))
		for i, w := range ws {
			defs[i] = accuracyCell(g, cid(w, "btb-default"), w, 0, sim.DefaultConfig())
			twos[i] = accuracyCell(g, cid(w, "btb-2bit"), w, 0, twoBit)
		}
		g.run()
		t := stats.NewTable(
			"Table 2: indirect-jump misprediction rate by BTB update strategy",
			"Benchmark", "BTB", "2-bit BTB")
		for i, w := range ws {
			t.AddRow(w.Name, rateCell(defs[i]), rateCell(twos[i]))
		}
		t.AddNote("paper: the 2-bit strategy helps compress, gcc, ijpeg and perl but hurts m88ksim, vortex and xlisp")
		return g.finish([]*stats.Table{t})
	},
})

// Table 3: instruction classes and latencies (machine configuration echo).
// No simulation cells: the table echoes the configuration.
var table3 = registerExperiment(&Experiment{
	ID:    "table3",
	Title: "Table 3: instruction classes and latencies",
	Run: func(p Params) []*stats.Table {
		cfg := cpu.DefaultConfig()
		t := stats.NewTable("Table 3: instruction classes and latencies",
			"Instruction Class", "Exec. Lat.")
		for _, row := range cfg.LatencyTable() {
			t.AddRow(row[0], row[1])
		}
		t.AddNote("machine: %d-wide issue, %d-instruction window, %dKB %d-way data cache, %d-cycle memory latency",
			cfg.Width, cfg.Window, cfg.DCacheBytes/1024, cfg.DCacheWays, cfg.MemLatency)
		return []*stats.Table{t}
	},
})

// Table 4: tagless target caches indexed with pattern history.
var table4 = registerExperiment(&Experiment{
	ID:    "table4",
	Title: "Table 4: pattern-history tagless target caches (512 entries)",
	Run: func(p Params) []*stats.Table {
		configs := []core.TaglessConfig{
			{Entries: 512, Scheme: core.SchemeGAg},
			{Entries: 512, Scheme: core.SchemeGAs, HistBits: 8, AddrBits: 1},
			{Entries: 512, Scheme: core.SchemeGAs, HistBits: 7, AddrBits: 2},
			{Entries: 512, Scheme: core.SchemeGshare},
		}
		ws := workload.PerlGcc()
		g := newCellGroup(p)
		rates := make([][]*slot[*sim.AccuracyResult], len(configs))
		for i, tcCfg := range configs {
			histBits := 9
			if tcCfg.Scheme == core.SchemeGAs {
				histBits = tcCfg.HistBits
			}
			cfg := tcConfig(
				func() core.TargetCache { return core.NewTagless(tcCfg) },
				pattern(histBits))
			rates[i] = make([]*slot[*sim.AccuracyResult], len(ws))
			for j, w := range ws {
				rates[i][j] = accuracyCell(g, cid(w, tcCfg.Name()), w, 0, cfg)
			}
		}
		g.run()
		t := stats.NewTable(
			"Table 4: indirect-jump misprediction rate, 512-entry tagless target caches",
			"Scheme", "perl", "gcc")
		for i, tcCfg := range configs {
			row := []string{tcCfg.Name()}
			// The table's column order is perl, gcc but PerlGcc returns
			// perl first already.
			for j := range ws {
				row = append(row, rateCell(rates[i][j]))
			}
			t.AddRow(row...)
		}
		t.AddNote("paper: gshare wins; a 512-entry target cache achieves 30.4%% (gcc) and 30.9%% (perl)")
		return g.finish([]*stats.Table{t})
	},
})

// warmBaselines enqueues one cell per workload that computes the BTB-only
// timing baseline, so reduction cells spend no pool time blocked on it.
func warmBaselines(g *cellGroup, tctx *timingContext, ws []*workload.Workload) {
	for _, w := range ws {
		g.add(cid(w, "btb-baseline"), func(Params) { tctx.baseline(w) })
	}
}

// Table 5: which target-address bits feed the path history register.
var table5 = registerExperiment(&Experiment{
	ID:    "table5",
	Title: "Table 5: path history — address bit selection (execution-time reduction)",
	Run: func(p Params) []*stats.Table {
		tctx := newTimingContext(p)
		ws := workload.PerlGcc()
		offsets := []int{2, 3, 4, 5, 6, 8, 12}
		g := newCellGroup(p)
		warmBaselines(g, tctx, ws)
		reds := make([][][]*slot[float64], len(ws))
		for i, w := range ws {
			reds[i] = make([][]*slot[float64], len(offsets))
			for j, offset := range offsets {
				for _, s := range pathSchemes(9, 1, offset) {
					cfg := tcConfig(taglessGshare(512), path(s.Cfg))
					reds[i][j] = append(reds[i][j], cell(g, cid(w, fmt.Sprintf("bit%d/%s", offset, s.Name)), func(p Params) float64 {
						return tctx.reduction(p, w, cfg)
					}))
				}
			}
		}
		g.run()
		var out []*stats.Table
		for i, w := range ws {
			t := stats.NewTable(
				fmt.Sprintf("Table 5 (%s): reduction in execution time by path-history address bit", w.Name),
				"addr bit", "Per-addr", "branch", "control", "ind jmp", "call/ret")
			for j, offset := range offsets {
				row := []string{fmt.Sprintf("%d", offset)}
				for _, red := range reds[i][j] {
					row = append(row, pctCell(red))
				}
				t.AddRow(row...)
			}
			t.AddNote("paper: the lower address bits provide more information than the higher bits")
			out = append(out, t)
		}
		return g.finish(out)
	},
})

// Table 6: how many bits of each target enter the path history register.
var table6 = registerExperiment(&Experiment{
	ID:    "table6",
	Title: "Table 6: path history — address bits per branch (execution-time reduction)",
	Run: func(p Params) []*stats.Table {
		tctx := newTimingContext(p)
		ws := workload.PerlGcc()
		bitCounts := []int{1, 2, 3}
		g := newCellGroup(p)
		warmBaselines(g, tctx, ws)
		reds := make([][][]*slot[float64], len(ws))
		for i, w := range ws {
			reds[i] = make([][]*slot[float64], len(bitCounts))
			for j, bits := range bitCounts {
				for _, s := range pathSchemes(9, bits, 2) {
					cfg := tcConfig(taglessGshare(512), path(s.Cfg))
					reds[i][j] = append(reds[i][j], cell(g, cid(w, fmt.Sprintf("%dbit/%s", bits, s.Name)), func(p Params) float64 {
						return tctx.reduction(p, w, cfg)
					}))
				}
			}
		}
		g.run()
		var out []*stats.Table
		for i, w := range ws {
			t := stats.NewTable(
				fmt.Sprintf("Table 6 (%s): reduction in execution time by bits recorded per target", w.Name),
				"bits per addr", "Per-addr", "branch", "control", "ind jmp", "call/ret")
			for j, bits := range bitCounts {
				row := []string{fmt.Sprintf("%d", bits)}
				for _, red := range reds[i][j] {
					row = append(row, pctCell(red))
				}
				t.AddRow(row...)
			}
			t.AddNote("paper: with nine history bits, recording more bits per target generally hurts (fewer branches remembered)")
			out = append(out, t)
		}
		return g.finish(out)
	},
})

// Table 7: tagged target cache indexing schemes across associativity.
var table7 = registerExperiment(&Experiment{
	ID:    "table7",
	Title: "Table 7: tagged target cache indexing schemes (execution-time reduction)",
	Run: func(p Params) []*stats.Table {
		tctx := newTimingContext(p)
		schemes := []core.TaggedScheme{
			core.SchemeAddress, core.SchemeHistoryConcat, core.SchemeHistoryXor,
		}
		ws := workload.PerlGcc()
		wayCounts := []int{1, 2, 4, 8, 16, 32, 64}
		g := newCellGroup(p)
		warmBaselines(g, tctx, ws)
		reds := make([][][]*slot[float64], len(ws))
		for i, w := range ws {
			reds[i] = make([][]*slot[float64], len(wayCounts))
			for j, ways := range wayCounts {
				for _, scheme := range schemes {
					cfg := tcConfig(func() core.TargetCache {
						return core.NewTagged(core.TaggedConfig{
							Entries: 256, Ways: ways, Scheme: scheme, HistBits: 9,
						})
					}, pattern(9))
					reds[i][j] = append(reds[i][j], cell(g, cid(w, fmt.Sprintf("%dway/scheme%d", ways, scheme)), func(p Params) float64 {
						return tctx.reduction(p, w, cfg)
					}))
				}
			}
		}
		g.run()
		var out []*stats.Table
		for i, w := range ws {
			t := stats.NewTable(
				fmt.Sprintf("Table 7 (%s): 256-entry tagged target cache, 9 pattern history bits", w.Name),
				"set-assoc.", "Addr", "History Conc", "History Xor")
			for j, ways := range wayCounts {
				row := []string{fmt.Sprintf("%d", ways)}
				for _, red := range reds[i][j] {
					row = append(row, pctCell(red))
				}
				t.AddRow(row...)
			}
			t.AddNote("paper: Address indexing needs high associativity (conflict misses); History Xor does not")
			out = append(out, t)
		}
		return g.finish(out)
	},
})

// Table 8: tagged target caches indexed with path history.
var table8 = registerExperiment(&Experiment{
	ID:    "table8",
	Title: "Table 8: tagged target caches with 9 path history bits (execution-time reduction)",
	Run: func(p Params) []*stats.Table {
		tctx := newTimingContext(p)
		ws := workload.PerlGcc()
		wayCounts := []int{1, 2, 4, 8, 16}
		g := newCellGroup(p)
		warmBaselines(g, tctx, ws)
		reds := make([][][]*slot[float64], len(ws))
		for i, w := range ws {
			reds[i] = make([][]*slot[float64], len(wayCounts))
			for j, ways := range wayCounts {
				for _, s := range pathSchemes(9, 1, 2) {
					cfg := tcConfig(func() core.TargetCache {
						return core.NewTagged(core.TaggedConfig{
							Entries: 256, Ways: ways, Scheme: core.SchemeHistoryXor, HistBits: 9,
						})
					}, path(s.Cfg))
					reds[i][j] = append(reds[i][j], cell(g, cid(w, fmt.Sprintf("%dway/%s", ways, s.Name)), func(p Params) float64 {
						return tctx.reduction(p, w, cfg)
					}))
				}
			}
		}
		g.run()
		var out []*stats.Table
		for i, w := range ws {
			t := stats.NewTable(
				fmt.Sprintf("Table 8 (%s): 256-entry tagged target cache (History Xor), 9 path history bits, 1 bit per target", w.Name),
				"set-assoc.", "Per-addr", "branch", "control", "ind jmp", "call/ret")
			for j, ways := range wayCounts {
				row := []string{fmt.Sprintf("%d", ways)}
				for _, red := range reds[i][j] {
					row = append(row, pctCell(red))
				}
				t.AddRow(row...)
			}
			t.AddNote("paper: pattern history wins for gcc, global path history for perl (perl is an interpreter)")
			out = append(out, t)
		}
		return g.finish(out)
	},
})

// Table 9: pattern history length for tagged caches (9 vs 16 bits).
var table9 = registerExperiment(&Experiment{
	ID:    "table9",
	Title: "Table 9: tagged target cache, 9 vs 16 pattern history bits (execution-time reduction)",
	Run: func(p Params) []*stats.Table {
		tctx := newTimingContext(p)
		ws := workload.PerlGcc()
		wayCounts := []int{1, 2, 4, 8, 16, 32}
		histBits := []int{9, 16}
		g := newCellGroup(p)
		warmBaselines(g, tctx, ws)
		reds := make([][][]*slot[float64], len(ws))
		for i, w := range ws {
			reds[i] = make([][]*slot[float64], len(wayCounts))
			for j, ways := range wayCounts {
				for _, bits := range histBits {
					cfg := tcConfig(func() core.TargetCache {
						return core.NewTagged(core.TaggedConfig{
							Entries: 256, Ways: ways, Scheme: core.SchemeHistoryXor, HistBits: bits,
						})
					}, pattern(bits))
					reds[i][j] = append(reds[i][j], cell(g, cid(w, fmt.Sprintf("%dway/%dbits", ways, bits)), func(p Params) float64 {
						return tctx.reduction(p, w, cfg)
					}))
				}
			}
		}
		g.run()
		var out []*stats.Table
		for i, w := range ws {
			t := stats.NewTable(
				fmt.Sprintf("Table 9 (%s): 256-entry tagged target cache (History Xor)", w.Name),
				"set-assoc.", "9 bits", "16 bits")
			for j, ways := range wayCounts {
				row := []string{fmt.Sprintf("%d", ways)}
				for _, red := range reds[i][j] {
					row = append(row, pctCell(red))
				}
				t.AddRow(row...)
			}
			t.AddNote("paper: more history bits help high-associativity caches and hurt low-associativity ones")
			out = append(out, t)
		}
		return g.finish(out)
	},
})

// Figures 12-13: tagless (512 entries) versus tagged (256 entries) across
// set-associativity.
var figures12and13 = registerExperiment(&Experiment{
	ID:    "figures12-13",
	Title: "Figures 12-13: tagged vs tagless target cache (execution-time reduction)",
	Run: func(p Params) []*stats.Table {
		tctx := newTimingContext(p)
		ws := workload.PerlGcc()
		wayCounts := []int{1, 2, 4, 8, 16}
		g := newCellGroup(p)
		warmBaselines(g, tctx, ws)
		taglessReds := make([]*slot[float64], len(ws))
		taggedReds := make([][]*slot[float64], len(ws))
		for i, w := range ws {
			taglessReds[i] = cell(g, cid(w, "tagless-512"), func(p Params) float64 {
				return tctx.reduction(p, w, tcConfig(taglessGshare(512), pattern(9)))
			})
			taggedReds[i] = make([]*slot[float64], len(wayCounts))
			for j, ways := range wayCounts {
				cfg := tcConfig(func() core.TargetCache {
					return core.NewTagged(core.TaggedConfig{
						Entries: 256, Ways: ways, Scheme: core.SchemeHistoryXor, HistBits: 9,
					})
				}, pattern(9))
				taggedReds[i][j] = cell(g, cid(w, fmt.Sprintf("tagged-256/%dway", ways)), func(p Params) float64 {
					return tctx.reduction(p, w, cfg)
				})
			}
		}
		g.run()
		var out []*stats.Table
		for fi, w := range ws {
			t := stats.NewTable(
				fmt.Sprintf("Figure %d (%s): execution-time reduction vs set-associativity", 12+fi, w.Name),
				"set-assoc.", "w/o tags (512-entry)", "w/ tags (256-entry)")
			healthy := taglessReds[fi].ok()
			var xs []string
			var taglessYs, taggedYs []float64
			for j, ways := range wayCounts {
				t.AddRow(fmt.Sprintf("%d", ways),
					pctCell(taglessReds[fi]),
					pctCell(taggedReds[fi][j]))
				if !taggedReds[fi][j].ok() {
					healthy = false
					continue
				}
				xs = append(xs, fmt.Sprintf("%d", ways))
				taglessYs = append(taglessYs, 100*taglessReds[fi].val)
				taggedYs = append(taggedYs, 100*taggedReds[fi][j].val)
			}
			t.AddNote("paper: tagless beats low-associativity tagged; tagged with >=4 ways beats tagless")
			// The ASCII plot only renders when every point exists; with
			// failed cells the ERR rows above carry the information.
			if healthy {
				plot := &stats.Plot{
					Title:  fmt.Sprintf("Figure %d (%s): %% execution-time reduction", 12+fi, w.Name),
					XLabel: "set-associativity",
				}
				plot.AddSeries("w/o tags (512-entry)", xs, taglessYs)
				plot.AddSeries("w/ tags (256-entry)", xs, taggedYs)
				t.Trailer = plot.String()
			}
			out = append(out, t)
		}
		return g.finish(out)
	},
})

// Ablation beyond the paper: global pattern history length sweep on the
// tagless gshare cache (the design dimension Table 9 probes for tagged
// caches).
var ablationHistLen = registerExperiment(&Experiment{
	ID:    "ablation-history",
	Title: "Ablation: tagless gshare history length sweep (misprediction rate)",
	Run: func(p Params) []*stats.Table {
		bitCounts := []int{3, 6, 9, 12, 16}
		ws := workload.PerlGcc()
		g := newCellGroup(p)
		rates := make([][]*slot[*sim.AccuracyResult], len(bitCounts))
		for i, bits := range bitCounts {
			cfg := tcConfig(taglessGshare(512), pattern(bits))
			rates[i] = make([]*slot[*sim.AccuracyResult], len(ws))
			for j, w := range ws {
				rates[i][j] = accuracyCell(g, cid(w, fmt.Sprintf("gshare-%dbits", bits)), w, 0, cfg)
			}
		}
		g.run()
		t := stats.NewTable(
			"Ablation: 512-entry tagless gshare, pattern history length",
			"history bits", "perl", "gcc")
		for i, bits := range bitCounts {
			row := []string{fmt.Sprintf("%d", bits)}
			for j := range ws {
				row = append(row, rateCell(rates[i][j]))
			}
			t.AddRow(row...)
		}
		return g.finish([]*stats.Table{t})
	},
})

// Ablation beyond the paper: predictor hardware budget accounting, the
// paper's cost model (Section 4.2). No simulation cells: pure arithmetic.
var budgetTable = registerExperiment(&Experiment{
	ID:    "budget",
	Title: "Cost model: predictor hardware budgets (Section 4.2 accounting)",
	Run: func(p Params) []*stats.Table {
		base := btb.New(btb.DefaultConfig())
		t := stats.NewTable("Predictor storage budgets", "Structure", "bits", "vs BTB")
		t.AddRow("1K-entry 4-way BTB", fmt.Sprintf("%d", base.CostBits()), "100.0%")
		tagless := core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
		t.AddRow("512-entry tagless target cache",
			fmt.Sprintf("%d", tagless.CostBits()),
			pct(float64(tagless.CostBits())/float64(base.CostBits())))
		for _, ways := range []int{1, 4, 16} {
			tagged := core.NewTagged(core.TaggedConfig{
				Entries: 256, Ways: ways, Scheme: core.SchemeHistoryXor, HistBits: 9,
			})
			t.AddRow(fmt.Sprintf("256-entry tagged target cache (%d-way)", ways),
				fmt.Sprintf("%d", tagged.CostBits()),
				pct(float64(tagged.CostBits())/float64(base.CostBits())))
		}
		t.AddNote("paper: the 512-entry tagless cache increases the predictor budget by ~18%%")
		return []*stats.Table{t}
	},
})

// Comparison beyond the paper's tables: the case block table (Section 2
// related work), in oracle and realistic (stale-value) modes, versus BTB
// and target cache.
var cbtComparison = registerExperiment(&Experiment{
	ID:    "cbt",
	Title: "Related work: case block table vs BTB vs target cache (misprediction rate)",
	Run: func(p Params) []*stats.Table {
		ws := workload.All()
		type cbtCell struct {
			base, tc      *slot[*sim.AccuracyResult]
			stale, oracle *slot[float64]
		}
		tcCfg := tcConfig(taglessGshare(512), pattern(9))
		g := newCellGroup(p)
		cells := make([]cbtCell, len(ws))
		for i, w := range ws {
			cells[i] = cbtCell{
				base: accuracyCell(g, cid(w, "btb"), w, 0, sim.DefaultConfig()),
				stale: cell(g, cid(w, "cbt-stale"), func(p Params) float64 {
					return runCBT(w, p, false)
				}),
				oracle: cell(g, cid(w, "cbt-oracle"), func(p Params) float64 {
					return runCBT(w, p, true)
				}),
				tc: accuracyCell(g, cid(w, "target-cache"), w, 0, tcCfg),
			}
		}
		g.run()
		t := stats.NewTable(
			"Case block table comparison (indirect-jump misprediction rate)",
			"Benchmark", "BTB", "CBT (stale value)", "CBT (oracle)", "target cache (gshare)")
		for i, w := range ws {
			c := cells[i]
			t.AddRow(w.Name, rateCell(c.base), pctCell(c.stale), pctCell(c.oracle), rateCell(c.tc))
		}
		t.AddNote("paper: the oracle CBT needs the dispatch value at fetch, which an out-of-order machine rarely has")
		return g.finish([]*stats.Table{t})
	},
})

// runCBT returns the CBT's indirect-jump misprediction rate on w, reading
// the memoized replay.
func runCBT(w *workload.Workload, p Params, oracle bool) float64 {
	cfg := cbt.DefaultConfig()
	cfg.Oracle = oracle
	c, err := sim.RunCBTCtx(p.Context(), w.ReplayPrefix(p.AccuracyBudget, p.shareBudget()), p.AccuracyBudget, cfg)
	instructionsSim.Add(p.AccuracyBudget)
	if err != nil {
		abortCell(err)
	}
	return c.MispredictRate()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
