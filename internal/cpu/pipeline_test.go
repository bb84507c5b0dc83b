package cpu

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestPipelineRefusesForeignMissBits pins that the pipeline and the event
// pass fail closed on miss bits computed for another cache or too few
// records.
func TestPipelineRefusesForeignMissBits(t *testing.T) {
	w, err := workload.ByName("go")
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 10_000))
	ctx := context.Background()
	small := DefaultConfig()
	small.DCacheBytes = 4096
	foreign, err := DCacheMisses(ctx, small, rep, rep.Len())
	if err != nil {
		t.Fatal(err)
	}
	short, err := DCacheMisses(ctx, DefaultConfig(), rep, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	for name, ms := range map[string]*Misses{"foreign geometry": foreign, "too few records": short, "none": nil} {
		if res := RunPipeline(ctx, DefaultConfig(), rep, ms, []Pass{{Instructions: rep.Len()}})[0]; res.Err == nil || res.Instructions != 0 {
			t.Errorf("%s: pipeline ran (%+v), want a refusal", name, res)
		}
		if res := RunEvent(ctx, DefaultConfig(), rep, ms, Pass{Instructions: rep.Len()}); res.Err == nil || res.Instructions != 0 {
			t.Errorf("%s: event pass ran (%+v), want a refusal", name, res)
		}
	}
}

// TestInvalidMachineFailsFast runs every timing entry point on each
// invalid machine field, each under a deadline: every run must return
// Config.Validate's error in Result.Err without simulating, where before
// a zero width hung, a zero window divided by zero and a zero-way cache
// panicked in the constructor.
func TestInvalidMachineFailsFast(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	bad := map[string]func(*Config){
		"width 0":         func(c *Config) { c.Width = 0 },
		"window 0":        func(c *Config) { c.Window = 0 },
		"negative depth":  func(c *Config) { c.FrontEndDepth = -1 },
		"negative memlat": func(c *Config) { c.MemLatency = -1 },
		"negative op lat": func(c *Config) { c.Latencies[trace.OpMul] = -3 },
		"dcache ways 0":   func(c *Config) { c.DCacheWays = 0 },
		"dcache line 48":  func(c *Config) { c.DCacheLine = 48 },
		"dcache line 0":   func(c *Config) { c.DCacheLine = 0 },
		"dcache too small": func(c *Config) {
			c.DCacheBytes = 64 // less than one 4-way set of 32-byte lines
		},
		"dcache ragged sets": func(c *Config) { c.DCacheBytes = 16*1024 + 32 },
		"negative deadlock":  func(c *Config) { c.DeadlockCycles = -1 },
	}
	models := map[string]func(context.Context, Config) Result{
		"fast-streaming": func(ctx context.Context, mc Config) Result {
			return New(mc, sim.NewEngine(sim.DefaultConfig())).RunCtx(ctx, rep.Open(), budget)
		},
		"fast-replay": func(ctx context.Context, mc Config) Result {
			return New(mc, sim.NewEngine(sim.DefaultConfig())).RunReplayCtx(ctx, rep, budget)
		},
		"event": func(ctx context.Context, mc Config) Result {
			return NewEvent(mc, sim.NewEngine(sim.DefaultConfig())).RunCtx(ctx, rep.Open(), budget)
		},
		"timeline": func(ctx context.Context, mc Config) Result {
			res, _ := RunTimeline(rep.Open(), budget, sim.NewEngine(sim.DefaultConfig()), mc, 10)
			return res
		},
		"pipeline": func(ctx context.Context, mc Config) Result {
			misses, _ := DCacheMisses(ctx, DefaultConfig(), rep, budget)
			return RunPipeline(ctx, mc, rep, misses, []Pass{{Instructions: budget}})[0]
		},
		"event-columnar": func(ctx context.Context, mc Config) Result {
			misses, _ := DCacheMisses(ctx, DefaultConfig(), rep, budget)
			return RunEvent(ctx, mc, rep, misses, Pass{Instructions: budget})
		},
	}
	for fn, mutate := range bad {
		mc := DefaultConfig()
		mutate(&mc)
		wantErr := mc.Validate()
		if wantErr == nil {
			t.Errorf("%s: Validate accepted the machine", fn)
			continue
		}
		if _, err := DCacheMisses(context.Background(), mc, rep, budget); err == nil {
			t.Errorf("%s: DCacheMisses accepted the machine", fn)
		}
		for mname, run := range models {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			done := make(chan Result, 1)
			go func() {
				defer func() {
					if v := recover(); v != nil {
						done <- Result{Err: errors.New("panic")}
					}
				}()
				done <- run(ctx, mc)
			}()
			select {
			case res := <-done:
				if res.Err == nil || res.Err.Error() != wantErr.Error() || res.Instructions != 0 {
					t.Errorf("%s/%s: got %+v, want Err %q and nothing simulated", fn, mname, res, wantErr)
				}
			case <-time.After(3 * time.Second):
				t.Errorf("%s/%s: the run ignored its deadline", fn, mname)
			}
			cancel()
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("the paper's machine fails validation: %v", err)
	}
}

// BenchmarkPipeline prices the fused timing path's parts on gcc: the
// predictor-free pipeline pass per instruction, the data-cache miss pass
// it reads, RunReplayCtx end to end (reference engine pass, miss pass,
// pipeline), and the pipeline per member-instruction over timing groups
// of 1, 2, 7 and 36 members.
func BenchmarkPipeline(b *testing.B) {
	const budget = 1_000_000
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	rep := w.Replay(budget)
	ctx := context.Background()
	cfg := sim.DefaultConfig().WithTargetCache(
		func() core.TargetCache {
			return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
		},
		func() history.Provider { return history.NewPatternProvider(9) })
	mc := DefaultConfig()
	perInstr := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*budget), "ns/instr")
	}
	b.Run("pipeline", func(b *testing.B) {
		pass := predict(ctx, sim.NewEngine(cfg), rep, budget)
		misses, err := DCacheMisses(ctx, mc, rep, budget)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RunPipeline(ctx, mc, rep, misses, []Pass{pass})
		}
		perInstr(b)
	})
	b.Run("dcache-misses", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DCacheMisses(ctx, mc, rep, budget); err != nil {
				b.Fatal(err)
			}
		}
		perInstr(b)
	})
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			New(mc, sim.NewEngine(cfg)).RunReplayCtx(ctx, rep, budget)
		}
		perInstr(b)
	})

	// The timing groups the experiment suite forms: one gang fills every
	// member's mispredict bits (once, for the largest group), then one
	// pipeline call times the group.
	var passes []Pass
	var misses *Misses
	groupPasses := func(b *testing.B) {
		if passes != nil {
			return
		}
		group := pipelineGroup()
		pts := make([]sim.GangPoint, len(group))
		passes = make([]Pass, len(group))
		for i, c := range group {
			pts[i] = sim.GangPoint{Config: c, Mispredicts: &passes[i].Mispredicts}
		}
		accs, err := sim.Run(ctx, rep, sim.Options{Budget: budget}, pts)
		if err != nil {
			b.Fatal(err)
		}
		for i := range passes {
			passes[i].Instructions, passes[i].Err = accs[i].Instructions, accs[i].Err
		}
		if misses, err = DCacheMisses(ctx, mc, rep, budget); err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range []int{1, 2, 7, 36} {
		b.Run(fmt.Sprintf("group-%d", k), func(b *testing.B) {
			groupPasses(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				RunPipeline(ctx, mc, rep, misses, passes[:k])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(k)*budget), "ns/member-instr")
		})
	}
}

// pipelineGroup is a timing group of 36 members over the paper's front
// end: the BTB-only baseline, the 512-entry tagless gshare cache
// (together, sensitivity's pair), then tagged caches of Table 7 (256
// entries, 1-64 ways, every scheme), tagless caches of other sizes and
// schemes, and the 512-entry gshare cache over Table 5's path histories,
// interleaved so that every prefix mixes the families.
func pipelineGroup() []sim.Config {
	pattern := func(bits int) func() history.Provider {
		return func() history.Provider { return history.NewPatternProvider(bits) }
	}
	tagless := func(entries int, scheme core.TaglessScheme) func() core.TargetCache {
		return func() core.TargetCache { return core.NewTagless(core.TaglessConfig{Entries: entries, Scheme: scheme}) }
	}
	var tagged, others, paths []sim.Config
	for _, ways := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, scheme := range []core.TaggedScheme{core.SchemeAddress, core.SchemeHistoryConcat, core.SchemeHistoryXor} {
			tagged = append(tagged, sim.DefaultConfig().WithTargetCache(func() core.TargetCache {
				return core.NewTagged(core.TaggedConfig{Entries: 256, Ways: ways, Scheme: scheme, HistBits: 9})
			}, pattern(9)))
		}
	}
	for bits := 7; bits <= 12; bits++ {
		for _, scheme := range []core.TaglessScheme{core.SchemeGAg, core.SchemeGshare} {
			if bits != 9 || scheme != core.SchemeGshare {
				others = append(others, sim.DefaultConfig().WithTargetCache(tagless(1<<bits, scheme), pattern(bits)))
			}
		}
	}
	for _, f := range []history.PathFilter{history.FilterBranch, history.FilterControl, history.FilterIndJmp, history.FilterCallRet} {
		pc := history.PathConfig{Bits: 9, BitsPerTarget: 1, AddrBitOffset: 2, Filter: f}
		paths = append(paths, sim.DefaultConfig().WithTargetCache(tagless(512, core.SchemeGshare),
			func() history.Provider { return history.NewPath(pc) }))
	}
	group := []sim.Config{sim.DefaultConfig(), sim.DefaultConfig().WithTargetCache(tagless(512, core.SchemeGshare), pattern(9))}
	for i := 0; len(group) < 36; i++ {
		for _, fam := range [][]sim.Config{tagged, others, paths} {
			if i < len(fam) && len(group) < 36 {
				group = append(group, fam[i])
			}
		}
	}
	return group
}
