package sweep

import (
	"context"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The reference configurations of the five table specs under
// examples/sweeps, built from core and history directly rather than
// through Point.SimConfig, so a spec that maps a column to another
// configuration fails.

func gshareRef(entries, bits int) sim.Config {
	return sim.DefaultConfig().WithTargetCache(
		func() core.TargetCache {
			return core.NewTagless(core.TaglessConfig{Entries: entries, Scheme: core.SchemeGshare})
		},
		func() history.Provider { return history.NewPatternProvider(bits) })
}

func taggedRef(entries, ways, bits int) sim.Config {
	return sim.DefaultConfig().WithTargetCache(
		func() core.TargetCache {
			return core.NewTagged(core.TaggedConfig{
				Entries: entries, Ways: ways, Scheme: core.SchemeHistoryXor, HistBits: bits,
			})
		},
		func() history.Provider { return history.NewPatternProvider(bits) })
}

func pathRef(bits int) sim.Config {
	return sim.DefaultConfig().WithTargetCache(
		func() core.TargetCache {
			return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
		},
		func() history.Provider {
			return history.NewPath(history.PathConfig{
				Bits: bits, BitsPerTarget: 1, AddrBitOffset: 2,
				Filter: history.FilterIndJmp,
			})
		})
}

// tableSpec is one table spec with a row of its table: the reference
// configurations of its columns, in the order the spec expands a
// workload's points.
type tableSpec struct {
	name string
	row  []sim.Config
}

func tableSpecs() []tableSpec {
	twoBit := sim.DefaultConfig()
	twoBit.BTB.Strategy = btb.StrategyTwoBit
	var entries, assoc, hist, pathlen []sim.Config
	for _, e := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		entries = append(entries, gshareRef(e, bits.TrailingZeros(uint(e)))) // log2(entries) history bits
	}
	for _, ways := range []int{1, 2, 4, 8, 16, 32} {
		assoc = append(assoc, taggedRef(256, ways, 9))
	}
	for _, b := range []int{3, 6, 9, 12, 16, 20} {
		hist = append(hist, gshareRef(512, b))
	}
	for _, b := range []int{4, 6, 9, 12, 16, 24} {
		pathlen = append(pathlen, pathRef(b))
	}
	return []tableSpec{
		{"predictors", []sim.Config{sim.DefaultConfig(), twoBit, gshareRef(512, 9), taggedRef(256, 4, 9), pathRef(9)}},
		{"entries", entries},
		{"assoc", assoc},
		{"history", hist},
		{"pathlen", pathlen},
	}
}

// TestTableSpecsMatchReference: each table spec sweeps all eight
// programs at 1M instructions, and at a 100k budget on perl and gcc each
// of its points reports, field for field, what sim.RunAccuracy reports
// for the reference configuration of its column over the same capture.
func TestTableSpecsMatchReference(t *testing.T) {
	var programs []string
	for _, w := range workload.All() {
		programs = append(programs, w.Name)
	}
	const budget = 100_000
	for _, tc := range tableSpecs() {
		data, err := os.ReadFile(filepath.Join(exampleSweeps, tc.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if spec.Budget != 1_000_000 || !reflect.DeepEqual(spec.Workloads, programs) {
			t.Errorf("%s sweeps %v at budget %d, want %v at 1000000", tc.name, spec.Workloads, spec.Budget, programs)
		}
		spec.Budget, spec.Workloads = budget, []string{"perl", "gcc"}
		out, err := Run(context.Background(), spec, Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(out.Results) != len(spec.Workloads)*len(tc.row) {
			t.Fatalf("%s: %d points, want %d rows of %d", tc.name, len(out.Results), len(spec.Workloads), len(tc.row))
		}
		for i, got := range out.Results {
			w, err := workload.ByName(spec.Workloads[i/len(tc.row)])
			if err != nil {
				t.Fatal(err)
			}
			ref := sim.RunAccuracy(w.Replay(budget), budget, tc.row[i%len(tc.row)])
			if ref.Err != nil {
				t.Fatalf("%s: reference run: %v", tc.name, ref.Err)
			}
			want := Result{
				Point:        got.Point,
				StorageBits:  got.StorageBits,
				Instructions: ref.Instructions,
				Branches:     ref.Branches,
				Indirect:     ref.Indirect.Predictions,
				IndirectMiss: ref.Indirect.Mispredicts,
				Overall:      ref.Overall.Predictions,
				OverallMiss:  ref.Overall.Mispredicts,
				TCCovered:    ref.TCCovered,
			}
			if got.Point.Workload != w.Name || got != want {
				t.Errorf("%s column %d on %s: point %s = %+v, want %+v",
					tc.name, i%len(tc.row), w.Name, got.Point.Key(), got, want)
			}
		}
	}
}
