// Command tcexplore runs free-form design-space sweeps over the target
// cache beyond the paper's fixed tables: entry counts, associativity,
// history kind and length, against any workload. It also renders per-site
// misprediction reports, either live (-sweep sites) or from a telemetry
// JSON file written by tcsim -telemetry (-sites).
//
// Usage:
//
//	tcexplore -w perl -sweep entries
//	tcexplore -w gcc -sweep assoc -n 2000000
//	tcexplore -w perl -sweep history
//	tcexplore -w all -sweep predictors
//	tcexplore -w perl -sweep sites
//	tcexplore -sites telem.json -top 5
//	tcexplore -frontier sweep-doc.json
//	tcexplore -frontier sweep-doc.json -frontier-csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		wname = flag.String("w", "perl", "workload name, or \"all\"")
		sweep = flag.String("sweep", "predictors",
			"sweep kind: predictors | entries | assoc | history | pathlen | sites")
		n     = flag.Int64("n", 1_000_000, "instructions per simulation")
		sites = flag.String("sites", "", "render the per-site report from this telemetry JSON file (written by tcsim -telemetry) and exit")
		top   = flag.Int("top", 10, "sites shown per cell in per-site reports (0 = all)")

		frontier    = flag.String("frontier", "", "render the Pareto frontier from this sweep/v1 JSON document (written by tcsweep -doc) and exit")
		frontierCSV = flag.Bool("frontier-csv", false, "with -frontier: emit every swept point as CSV instead of the frontier tables")
	)
	flag.Parse()

	if *frontier != "" {
		if err := renderFrontierFile(*frontier, *frontierCSV); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	if *sites != "" {
		if err := renderSitesFile(*sites, *top); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	var ws []*workload.Workload
	if *wname == "all" {
		ws = workload.All()
	} else {
		w, err := workload.ByName(*wname)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ws = append(ws, w)
	}

	if *sweep == "sites" {
		if err := sweepSites(ws, *n, *top); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	var t *stats.Table
	switch *sweep {
	case "predictors":
		t = sweepPredictors(ws, *n)
	case "entries":
		t = sweepEntries(ws, *n)
	case "assoc":
		t = sweepAssoc(ws, *n)
	case "history":
		t = sweepHistory(ws, *n)
	case "pathlen":
		t = sweepPathLen(ws, *n)
	default:
		fmt.Fprintf(os.Stderr, "unknown sweep %q\n", *sweep)
		os.Exit(2)
	}
	t.Render(os.Stdout)
}

// renderFrontierFile re-renders a sweep/v1 document previously written by
// tcsweep -doc, so a recorded design-space sweep can be inspected without
// re-simulating.
func renderFrontierFile(path string, asCSV bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := sweep.ParseDocument(data)
	if err != nil {
		return fmt.Errorf("tcexplore: %s: %w", path, err)
	}
	if asCSV {
		return doc.WriteCSV(os.Stdout)
	}
	doc.Render(os.Stdout)
	return nil
}

// renderSitesFile re-renders the per-site report of a telemetry document
// previously written by tcsim -telemetry, so a saved run can be inspected
// without re-simulating.
func renderSitesFile(path string, top int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep telemetry.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("tcexplore: %s is not a telemetry report: %w", path, err)
	}
	return rep.WriteSites(os.Stdout, top)
}

// sweepSites simulates the baseline BTB and the canonical tagless gshare
// target cache on each workload with telemetry enabled and prints the
// per-site breakdown — Table 1's misprediction rates, resolved to the
// individual jump sites that produce them.
func sweepSites(ws []*workload.Workload, n int64, top int) error {
	rec := telemetry.NewRecorder(telemetry.Config{})
	for _, w := range ws {
		for _, v := range []struct {
			name string
			cfg  sim.Config
		}{
			{"btb", sim.DefaultConfig()},
			{"gshare-512", gshareCfg(512, 9)},
		} {
			col := rec.NewCollector()
			cfg := v.cfg
			cfg.Telemetry = col
			sim.RunAccuracy(w, n, cfg)
			rec.Merge(telemetry.Key{Workload: w.Name, Config: v.name}, col)
		}
	}
	return rec.Report(telemetry.RunInfo{}).WriteSites(os.Stdout, top)
}

func pct(v float64) string { return stats.Percent(v) }

func run(w *workload.Workload, n int64, cfg sim.Config) string {
	return pct(sim.RunAccuracy(w, n, cfg).IndirectMispredictRate())
}

func gshareCfg(entries, bits int) sim.Config {
	return sim.DefaultConfig().WithTargetCache(
		func() core.TargetCache {
			return core.NewTagless(core.TaglessConfig{Entries: entries, Scheme: core.SchemeGshare})
		},
		func() history.Provider { return history.NewPatternProvider(bits) })
}

func taggedCfg(entries, ways, bits int) sim.Config {
	return sim.DefaultConfig().WithTargetCache(
		func() core.TargetCache {
			return core.NewTagged(core.TaggedConfig{
				Entries: entries, Ways: ways, Scheme: core.SchemeHistoryXor, HistBits: bits,
			})
		},
		func() history.Provider { return history.NewPatternProvider(bits) })
}

// sweepPredictors compares every predictor family at its canonical size.
func sweepPredictors(ws []*workload.Workload, n int64) *stats.Table {
	t := stats.NewTable("Indirect-jump misprediction rate by predictor",
		"Benchmark", "BTB", "2-bit BTB", "tagless gshare(512)",
		"tagged xor 256/4w", "path ind-jmp(512)")
	for _, w := range ws {
		twoBit := sim.DefaultConfig()
		twoBit.BTB.Strategy = btb.StrategyTwoBit
		pathCfg := sim.DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
			},
			func() history.Provider {
				return history.NewPath(history.PathConfig{
					Bits: 9, BitsPerTarget: 1, AddrBitOffset: 2,
					Filter: history.FilterIndJmp,
				})
			})
		t.AddRow(w.Name,
			run(w, n, sim.DefaultConfig()),
			run(w, n, twoBit),
			run(w, n, gshareCfg(512, 9)),
			run(w, n, taggedCfg(256, 4, 9)),
			run(w, n, pathCfg))
	}
	return t
}

// sweepEntries varies the tagless cache size.
func sweepEntries(ws []*workload.Workload, n int64) *stats.Table {
	t := stats.NewTable("Tagless gshare: misprediction rate by entry count",
		"Benchmark", "64", "128", "256", "512", "1024", "2048", "4096")
	for _, w := range ws {
		row := []string{w.Name}
		for _, e := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
			bits := 0
			for 1<<bits < e {
				bits++
			}
			row = append(row, run(w, n, gshareCfg(e, bits)))
		}
		t.AddRow(row...)
	}
	return t
}

// sweepAssoc varies tagged-cache associativity.
func sweepAssoc(ws []*workload.Workload, n int64) *stats.Table {
	t := stats.NewTable("Tagged History-Xor 256 entries: misprediction rate by associativity",
		"Benchmark", "1", "2", "4", "8", "16", "32")
	for _, w := range ws {
		row := []string{w.Name}
		for _, ways := range []int{1, 2, 4, 8, 16, 32} {
			row = append(row, run(w, n, taggedCfg(256, ways, 9)))
		}
		t.AddRow(row...)
	}
	return t
}

// sweepHistory varies pattern history length on the tagless cache.
func sweepHistory(ws []*workload.Workload, n int64) *stats.Table {
	t := stats.NewTable("Tagless gshare(512): misprediction rate by pattern history length",
		"Benchmark", "3", "6", "9", "12", "16", "20")
	for _, w := range ws {
		row := []string{w.Name}
		for _, bits := range []int{3, 6, 9, 12, 16, 20} {
			row = append(row, run(w, n, gshareCfg(512, bits)))
		}
		t.AddRow(row...)
	}
	return t
}

// sweepPathLen varies the path history register length (ind-jmp filter).
func sweepPathLen(ws []*workload.Workload, n int64) *stats.Table {
	t := stats.NewTable("Tagless gshare(512), ind-jmp path history: misprediction rate by register length",
		"Benchmark", "4", "6", "9", "12", "16", "24")
	for _, w := range ws {
		row := []string{w.Name}
		for _, bits := range []int{4, 6, 9, 12, 16, 24} {
			bits := bits
			cfg := sim.DefaultConfig().WithTargetCache(
				func() core.TargetCache {
					return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
				},
				func() history.Provider {
					return history.NewPath(history.PathConfig{
						Bits: bits, BitsPerTarget: 1, AddrBitOffset: 2,
						Filter: history.FilterIndJmp,
					})
				})
			row = append(row, run(w, n, cfg))
		}
		t.AddRow(row...)
	}
	return t
}
