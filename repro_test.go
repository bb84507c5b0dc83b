package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quick-start does, and checks the paper's headline result end to end:
// the target cache substantially reduces indirect-jump mispredictions and
// execution time on perl and gcc.
func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	const budget = 500_000

	gshare := func() repro.TargetCache {
		return repro.NewTagless(repro.TaglessConfig{
			Entries: 512, Scheme: repro.SchemeGshare,
		})
	}
	pat9 := func() repro.History { return repro.NewPatternHistory(9) }
	machine := repro.DefaultMachine()

	for _, name := range []string{"perl", "gcc"} {
		w, err := repro.WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base := repro.RunAccuracy(w, budget, repro.BaselineConfig())
		tc := repro.RunAccuracy(w, budget, repro.BaselineConfig().WithTargetCache(gshare, pat9))
		if tc.IndirectMispredictRate() >= base.IndirectMispredictRate() {
			t.Errorf("%s: target cache (%.1f%%) did not beat BTB (%.1f%%)",
				name, 100*tc.IndirectMispredictRate(), 100*base.IndirectMispredictRate())
		}

		baseT := repro.RunTiming(w, budget, repro.BaselineConfig(), machine)
		tcT := repro.RunTiming(w, budget, repro.BaselineConfig().WithTargetCache(gshare, pat9), machine)
		if tcT.Cycles >= baseT.Cycles {
			t.Errorf("%s: no execution-time reduction (%d -> %d cycles)",
				name, baseT.Cycles, tcT.Cycles)
		}
		if baseT.IPC() <= 0 || baseT.IPC() > float64(machine.Width) {
			t.Errorf("%s: implausible IPC %.2f", name, baseT.IPC())
		}
	}
}

func TestFacadeRegistries(t *testing.T) {
	if got := len(repro.Workloads()); got != 8 {
		t.Fatalf("workloads = %d, want 8", got)
	}
	if got := len(repro.Experiments()); got < 11 {
		t.Fatalf("experiments = %d, want >= 11", got)
	}
	if _, err := repro.WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := repro.ExperimentByID("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	p := repro.DefaultExperimentParams()
	if p.AccuracyBudget <= 0 || p.TimingBudget <= 0 {
		t.Fatalf("bad default params %+v", p)
	}
}

// TestPathHistoryWinsOnPerl pins the paper's Section 4.2.3 observation via
// the public API: the Ind-jmp global path history beats pattern history on
// the interpreter workload.
func TestPathHistoryWinsOnPerl(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	const budget = 500_000
	w, err := repro.WorkloadByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	gshare := func() repro.TargetCache {
		return repro.NewTagless(repro.TaglessConfig{Entries: 512, Scheme: repro.SchemeGshare})
	}
	pat := repro.RunAccuracy(w, budget, repro.BaselineConfig().WithTargetCache(
		gshare, func() repro.History { return repro.NewPatternHistory(9) }))
	path := repro.RunAccuracy(w, budget, repro.BaselineConfig().WithTargetCache(
		gshare, func() repro.History {
			return repro.NewPathHistory(repro.PathConfig{
				Bits: 9, BitsPerTarget: 1, AddrBitOffset: 2,
				Filter: repro.FilterIndJmp,
			})
		}))
	if path.IndirectMispredictRate() >= pat.IndirectMispredictRate() {
		t.Errorf("path history (%.1f%%) should beat pattern history (%.1f%%) on perl",
			100*path.IndirectMispredictRate(), 100*pat.IndirectMispredictRate())
	}
}

// TestFacadeRejectsBadMachines pins that the public timing entry points
// report an impossible machine in TimingResult.Err instead of hanging
// (zero width) or panicking (zero window, zero-way data cache).
func TestFacadeRejectsBadMachines(t *testing.T) {
	w, err := repro.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	src := w.Replay(5_000)
	bad := map[string]func(*repro.MachineConfig){
		"width 0":        func(m *repro.MachineConfig) { m.Width = 0 },
		"window 0":       func(m *repro.MachineConfig) { m.Window = 0 },
		"dcache ways 0":  func(m *repro.MachineConfig) { m.DCacheWays = 0 },
		"dcache line 48": func(m *repro.MachineConfig) { m.DCacheLine = 48 },
	}
	for name, mutate := range bad {
		m := repro.DefaultMachine()
		mutate(&m)
		timeline, _ := repro.RunTimelineDiagram(src, 5_000, repro.BaselineConfig(), m, 8)
		for model, res := range map[string]repro.TimingResult{
			"fast":     repro.RunTiming(src, 5_000, repro.BaselineConfig(), m),
			"event":    repro.RunTimingEvent(src, 5_000, repro.BaselineConfig(), m),
			"timeline": timeline,
		} {
			if res.Err == nil || res.Instructions != 0 {
				t.Errorf("%s/%s: got %+v, want a validation error and nothing simulated", name, model, res)
			}
		}
	}
}

// TestTimingTakesAnyRegisterByte pins that the streaming fast model times
// records whose register bytes are 64 or more — a trace.Record may carry
// any byte, though the VM's 32 registers never do — as the capture path
// does: RunCtx and RunTiming over a hand-built trace report RunReplayCtx's
// Result instead of panicking.
func TestTimingTakesAnyRegisterByte(t *testing.T) {
	recs := []trace.Record{
		{PC: 0x100, Op: trace.OpLoad, Addr: 0x8000, Dst: 70},
		{PC: 0x104, Op: trace.OpMul, Src1: 70, Dst: 200},
		{PC: 0x108, Op: trace.OpInt, Src1: 200, Src2: 70, Dst: 255},
		{PC: 0x10c, Op: trace.OpBranch, Class: trace.ClassCondDirect, Taken: true, Target: 0x100, Src1: 255},
		{PC: 0x100, Op: trace.OpLoad, Addr: 0x8040, Src1: 255, Dst: 70},
		{PC: 0x104, Op: trace.OpDiv, Src1: 70, Src2: 200, Dst: 70},
	}
	rep := trace.Capture(trace.NewSliceSource(recs))
	budget := int64(len(recs))
	ctx, machine := context.Background(), cpu.DefaultConfig()
	want := cpu.New(machine, sim.NewEngine(sim.DefaultConfig())).RunReplayCtx(ctx, rep, budget)
	if want.Err != nil || want.Instructions != budget {
		t.Fatalf("RunReplayCtx: %+v", want)
	}
	for name, run := range map[string]func() repro.TimingResult{
		"RunCtx": func() repro.TimingResult {
			return cpu.New(machine, sim.NewEngine(sim.DefaultConfig())).RunCtx(ctx, rep.Open(), budget)
		},
		"RunTiming": func() repro.TimingResult {
			return repro.RunTiming(rep, budget, repro.BaselineConfig(), repro.DefaultMachine())
		},
	} {
		if got := run(); got != want {
			t.Errorf("%s: %+v, want RunReplayCtx's %+v", name, got, want)
		}
	}
}
