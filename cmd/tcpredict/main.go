// Command tcpredict replays a saved TCSTORE1 trace-store file (produced
// by tracegen or tcasm) through a chosen predictor configuration and
// reports per-class accuracy. It decouples trace generation from
// prediction, so external traces in the repository's format can be
// evaluated too. A damaged or truncated file exits 1 with the error on
// stderr instead of printing partial rates.
//
// Usage:
//
//	tracegen -w perl -n 1000000 -o perl.tcstore
//	tcpredict -trace perl.tcstore -predictor tagless
//	tcpredict -trace perl.tcstore -predictor tagged -ways 8 -hist 16
//	tcpredict -trace perl.tcstore -predictor ittage -history path
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace-store file (required)")
		predictor = flag.String("predictor", "btb",
			"predictor: btb | tagless | tagged | hybrid | cascaded | ittage")
		histKind = flag.String("history", "pattern", "history: pattern | path")
		histBits = flag.Int("hist", 9, "history length in bits")
		entries  = flag.Int("entries", 512, "target cache entries")
		ways     = flag.Int("ways", 4, "tagged cache associativity")
	)
	flag.Parse()
	if *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := sim.DefaultConfig()
	if *predictor != "btb" {
		newTC, err := buildTC(*predictor, *entries, *ways, *histBits)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		newHist, err := buildHistory(*histKind, *histBits)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg = cfg.WithTargetCache(newTC, newHist)
	}

	store, err := trace.OpenStoreFile(*tracePath, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpredict:", err)
		os.Exit(1)
	}
	res := sim.RunAccuracy(store, store.Len(), cfg)
	store.Close() // read-only; the run is over
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "tcpredict: %s: %v\n", *tracePath, res.Err)
		os.Exit(1)
	}
	if res.Instructions == 0 {
		fmt.Fprintln(os.Stderr, "tcpredict: empty trace")
		os.Exit(1)
	}

	report(os.Stdout, *tracePath, *predictor, res)
}

// report prints res as the per-class accuracy table.
func report(w io.Writer, path, predictor string, res sim.AccuracyResult) {
	fmt.Fprintf(w, "trace:                 %s (%d instructions, %d branches)\n",
		path, res.Instructions, res.Branches)
	fmt.Fprintf(w, "predictor:             %s\n", predictor)
	fmt.Fprintf(w, "conditional mispred:   %7.3f%%  (%d)\n",
		100*res.Conditional.MispredictRate(), res.Conditional.Predictions)
	fmt.Fprintf(w, "direct mispred:        %7.3f%%  (%d)\n",
		100*res.Direct.MispredictRate(), res.Direct.Predictions)
	fmt.Fprintf(w, "return mispred:        %7.3f%%  (%d)\n",
		100*res.Returns.MispredictRate(), res.Returns.Predictions)
	fmt.Fprintf(w, "indirect jump mispred: %7.3f%%  (%d)\n",
		100*res.IndirectMispredictRate(), res.Indirect.Predictions)
	fmt.Fprintf(w, "overall mispred:       %7.3f%%\n", 100*res.Overall.MispredictRate())
}

func buildTC(kind string, entries, ways, histBits int) (func() core.TargetCache, error) {
	switch kind {
	case "tagless":
		cfg := core.TaglessConfig{Entries: entries, Scheme: core.SchemeGshare}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return func() core.TargetCache { return core.NewTagless(cfg) }, nil
	case "tagged":
		cfg := core.TaggedConfig{
			Entries: entries, Ways: ways,
			Scheme: core.SchemeHistoryXor, HistBits: histBits,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return func() core.TargetCache { return core.NewTagged(cfg) }, nil
	case "hybrid":
		return func() core.TargetCache { return core.DefaultChooser() }, nil
	case "cascaded":
		return func() core.TargetCache {
			return core.NewCascaded(core.DefaultCascadedConfig())
		}, nil
	case "ittage":
		return func() core.TargetCache {
			return core.NewITTAGE(core.DefaultITTAGEConfig())
		}, nil
	default:
		return nil, fmt.Errorf("tcpredict: unknown predictor %q", kind)
	}
}

func buildHistory(kind string, bits int) (func() history.Provider, error) {
	switch kind {
	case "pattern":
		return func() history.Provider { return history.NewPatternProvider(bits) }, nil
	case "path":
		cfg := history.PathConfig{
			Bits: bits, BitsPerTarget: 1, AddrBitOffset: 2,
			Filter: history.FilterIndJmp,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return func() history.Provider { return history.NewPath(cfg) }, nil
	default:
		return nil, fmt.Errorf("tcpredict: unknown history %q", kind)
	}
}
