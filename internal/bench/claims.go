package bench

import (
	"fmt"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// A Claim is one of the paper's qualitative findings, stated as an
// executable check. Claims compare measured quantities with margins, so
// they hold across budgets and seeds; they are the reproduction's
// regression suite in experiment form (`tcsim -exp verify`).
type Claim struct {
	// ID numbers the claim as in DESIGN.md.
	ID int
	// Statement paraphrases the paper.
	Statement string
	// Check is the claim in two phases. It enqueues the claim's accuracy
	// runs through run, which returns where each run's result lands, and
	// returns the verdict: a function that, once the runs have completed,
	// reports a human-readable measurement and whether the claim held.
	Check func(run enqueueRun) (verdict func() (string, bool))
}

// enqueueRun enqueues one accuracy run of cfg on w's memoized capture and
// returns where its result lands once the run has completed.
type enqueueRun = func(w *workload.Workload, cfg sim.Config) *sim.AccuracyResult

// enqueue adds the claim to g as one cell labelled claim-N, whose runs
// fuse with the group's other runs, and returns the cell and the claim's
// verdict; call the verdict only after g has run and only if the cell is
// ok.
func (c Claim) enqueue(g *cellGroup) (*groupCell, func() (string, bool)) {
	cl := g.add(cellID{Config: fmt.Sprintf("claim-%d", c.ID)}, nil)
	return cl, c.Check(func(w *workload.Workload, cfg sim.Config) *sim.AccuracyResult {
		return cl.accuracy(w, 0, cfg)
	})
}

// rate is a completed run's indirect misprediction rate.
func rate(r *sim.AccuracyResult) float64 { return r.IndirectMispredictRate() }

func mustWorkload(name string) *workload.Workload {
	w, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

func taglessCfg(scheme core.TaglessScheme, histBits, addrBits int) sim.Config {
	return tcConfig(func() core.TargetCache {
		return core.NewTagless(core.TaglessConfig{
			Entries: 512, Scheme: scheme, HistBits: histBits, AddrBits: addrBits,
		})
	}, pattern(9))
}

func taggedCfgN(scheme core.TaggedScheme, ways, histBits int) sim.Config {
	return tcConfig(func() core.TargetCache {
		return core.NewTagged(core.TaggedConfig{
			Entries: 256, Ways: ways, Scheme: scheme, HistBits: histBits,
		})
	}, pattern(histBits))
}

func pathCfg(filter history.PathFilter) sim.Config {
	return tcConfig(taglessGshare(512), path(history.PathConfig{
		Bits: 9, BitsPerTarget: 1, AddrBitOffset: 2, Filter: filter,
	}))
}

// Claims returns the paper's checkable findings. Each claim enqueues its
// runs in the order it reads them; repeated configurations stay separate
// runs.
func Claims() []Claim {
	return []Claim{
		{
			ID:        1,
			Statement: "BTBs mispredict indirect jumps badly on indirect-heavy benchmarks (perl, gcc)",
			Check: func(run enqueueRun) func() (string, bool) {
				perl := run(mustWorkload("perl"), sim.DefaultConfig())
				gcc := run(mustWorkload("gcc"), sim.DefaultConfig())
				return func() (string, bool) {
					perl, gcc := rate(perl), rate(gcc)
					return fmt.Sprintf("perl %.1f%%, gcc %.1f%%", 100*perl, 100*gcc),
						perl > 0.5 && gcc > 0.4
				}
			},
		},
		{
			ID:        2,
			Statement: "the 2-bit BTB strategy is a mixed bag (helps some, hurts others); the target cache beats both on perl and gcc",
			Check: func(run enqueueRun) func() (string, bool) {
				twoBit := sim.DefaultConfig()
				twoBit.BTB.Strategy = btb.StrategyTwoBit
				// Per workload: the default BTB, then the 2-bit BTB.
				var all [][2]*sim.AccuracyResult
				for _, w := range workload.All() {
					all = append(all, [2]*sim.AccuracyResult{run(w, sim.DefaultConfig()), run(w, twoBit)})
				}
				// perl and gcc: default BTB, 2-bit BTB, target cache.
				var pg [][3]*sim.AccuracyResult
				for _, name := range []string{"perl", "gcc"} {
					w := mustWorkload(name)
					pg = append(pg, [3]*sim.AccuracyResult{
						run(w, sim.DefaultConfig()),
						run(w, twoBit),
						run(w, tcConfig(taglessGshare(512), pattern(9))),
					})
				}
				return func() (string, bool) {
					helps, hurts := 0, 0
					for _, r := range all {
						def, two := rate(r[0]), rate(r[1])
						if two < def {
							helps++
						} else if two > def {
							hurts++
						}
					}
					tcWins := true
					for _, r := range pg {
						def, two, tc := rate(r[0]), rate(r[1]), rate(r[2])
						if tc >= def || tc >= two {
							tcWins = false
						}
					}
					return fmt.Sprintf("2-bit helps %d and hurts %d of 8; target cache beats both on perl+gcc: %v",
						helps, hurts, tcWins), helps >= 2 && hurts >= 2 && tcWins
				}
			},
		},
		{
			ID:        3,
			Statement: "gshare is the best tagless index hash on perl and gcc",
			Check: func(run enqueueRun) func() (string, bool) {
				names := []string{"perl", "gcc"}
				// Per workload: gshare, GAg, GAs.
				var res [][3]*sim.AccuracyResult
				for _, name := range names {
					w := mustWorkload(name)
					res = append(res, [3]*sim.AccuracyResult{
						run(w, taglessCfg(core.SchemeGshare, 0, 0)),
						run(w, taglessCfg(core.SchemeGAg, 0, 0)),
						run(w, taglessCfg(core.SchemeGAs, 8, 1)),
					})
				}
				return func() (string, bool) {
					ok := true
					var msg string
					for i, name := range names {
						gshare, gag, gas := rate(res[i][0]), rate(res[i][1]), rate(res[i][2])
						if gshare > gag+0.01 || gshare > gas+0.01 {
							ok = false
						}
						msg += fmt.Sprintf("%s: gshare %.1f%% GAg %.1f%% GAs %.1f%%  ",
							name, 100*gshare, 100*gag, 100*gas)
					}
					return msg, ok
				}
			},
		},
		{
			ID:        4,
			Statement: "pattern history wins on gcc; global ind-jmp path history wins on perl (perl is an interpreter)",
			Check: func(run enqueueRun) func() (string, bool) {
				perl := mustWorkload("perl")
				gcc := mustWorkload("gcc")
				perlPat := run(perl, tcConfig(taglessGshare(512), pattern(9)))
				perlPath := run(perl, pathCfg(history.FilterIndJmp))
				gccPat := run(gcc, tcConfig(taglessGshare(512), pattern(9)))
				gccPath := run(gcc, pathCfg(history.FilterIndJmp))
				return func() (string, bool) {
					perlPat, perlPath, gccPat, gccPath := rate(perlPat), rate(perlPath), rate(gccPat), rate(gccPath)
					return fmt.Sprintf("perl pat %.1f%% path %.1f%%; gcc pat %.1f%% path %.1f%%",
							100*perlPat, 100*perlPath, 100*gccPat, 100*gccPath),
						perlPath < perlPat && gccPat < gccPath
				}
			},
		},
		{
			ID:        5,
			Statement: "lower target-address bits carry more path information than higher bits",
			Check: func(run enqueueRun) func() (string, bool) {
				w := mustWorkload("gcc")
				low := run(w, tcConfig(taglessGshare(512), path(history.PathConfig{
					Bits: 9, BitsPerTarget: 1, AddrBitOffset: 2, Filter: history.FilterBranch,
				})))
				high := run(w, tcConfig(taglessGshare(512), path(history.PathConfig{
					Bits: 9, BitsPerTarget: 1, AddrBitOffset: 12, Filter: history.FilterBranch,
				})))
				return func() (string, bool) {
					low, high := rate(low), rate(high)
					return fmt.Sprintf("gcc branch-path: bit2 %.1f%% vs bit12 %.1f%%",
						100*low, 100*high), low < high
				}
			},
		},
		{
			ID:        6,
			Statement: "Address-indexed tagged caches need associativity; History-XOR works direct-mapped",
			Check: func(run enqueueRun) func() (string, bool) {
				w := mustWorkload("perl")
				addr1 := run(w, taggedCfgN(core.SchemeAddress, 1, 9))
				xor1 := run(w, taggedCfgN(core.SchemeHistoryXor, 1, 9))
				return func() (string, bool) {
					addr1, xor1 := rate(addr1), rate(xor1)
					return fmt.Sprintf("perl 1-way: Addr %.1f%% vs Xor %.1f%%",
						100*addr1, 100*xor1), xor1+0.05 < addr1
				}
			},
		},
		{
			ID:        7,
			Statement: "longer history helps high-associativity tagged caches and hurts low-associativity ones (gcc)",
			Check: func(run enqueueRun) func() (string, bool) {
				w := mustWorkload("gcc")
				lo9 := run(w, taggedCfgN(core.SchemeHistoryXor, 1, 9))
				lo16 := run(w, taggedCfgN(core.SchemeHistoryXor, 1, 16))
				hi9 := run(w, taggedCfgN(core.SchemeHistoryXor, 32, 9))
				hi16 := run(w, taggedCfgN(core.SchemeHistoryXor, 32, 16))
				return func() (string, bool) {
					lo9, lo16, hi9, hi16 := rate(lo9), rate(lo16), rate(hi9), rate(hi16)
					return fmt.Sprintf("1-way: 9b %.1f%% vs 16b %.1f%%; 32-way: 9b %.1f%% vs 16b %.1f%%",
							100*lo9, 100*lo16, 100*hi9, 100*hi16),
						lo16 > lo9-0.02 && hi16 < hi9
				}
			},
		},
		{
			ID:        8,
			Statement: "tagless beats low-associativity tagged; tagged with >=4 ways is at least competitive",
			Check: func(run enqueueRun) func() (string, bool) {
				w := mustWorkload("perl")
				tagless := run(w, tcConfig(taglessGshare(512), pattern(9)))
				tag1 := run(w, taggedCfgN(core.SchemeHistoryXor, 1, 9))
				tag8 := run(w, taggedCfgN(core.SchemeHistoryXor, 8, 9))
				return func() (string, bool) {
					tagless, tag1, tag8 := rate(tagless), rate(tag1), rate(tag8)
					return fmt.Sprintf("perl: tagless %.1f%%, tagged 1-way %.1f%%, tagged 8-way %.1f%%",
							100*tagless, 100*tag1, 100*tag8),
						tagless < tag1 && tag8 <= tagless+0.01
				}
			},
		},
	}
}

// The verify experiment runs every claim and reports PASS/FAIL.
var verifyExperiment = registerExperiment(&Experiment{
	ID:    "verify",
	Title: "Verify the paper's qualitative claims against this reproduction",
	Run: func(p Params) []*stats.Table {
		claims := Claims()
		// One cell per claim. Each claim's runs fuse with every other
		// claim's runs on the same workload and front end, and its verdict
		// is computed from their results once the group has run.
		g := newCellGroup(p)
		cells := make([]*groupCell, len(claims))
		verdicts := make([]func() (string, bool), len(claims))
		for i, c := range claims {
			cells[i], verdicts[i] = c.enqueue(g)
		}
		g.run()
		t := stats.NewTable("Paper claims verification",
			"#", "claim", "measured", "verdict")
		passed := 0
		for i, c := range claims {
			if !cells[i].ok() {
				t.AddRow(fmt.Sprintf("%d", c.ID), c.Statement, "ERR", "ERR")
				continue
			}
			msg, ok := verdicts[i]()
			verdict := "PASS"
			if ok {
				passed++
			} else {
				verdict = "FAIL"
			}
			t.AddRow(fmt.Sprintf("%d", c.ID), c.Statement, msg, verdict)
		}
		t.AddNote("%d/%d claims reproduced", passed, len(claims))
		return g.finish([]*stats.Table{t})
	},
})
