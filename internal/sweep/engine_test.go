package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// diffSpec is the differential-test grid: at least one point per
// predictor family, two workloads, small budget. Each workload has
// several btb points mixing geometry and update strategy, and at least
// two points per history scheme at two depths, so every kind of fused
// unit — btb gangs and target-cache gangs over pattern, global path and
// per-address path history — forms and is checked.
const diffSpec = `{
	"name": "differential",
	"budget": 30000,
	"workloads": ["perl", "gcc"],
	"grids": [
		{"family": "btb", "schemes": ["default", "2bit"], "entries": [512, 1024], "ways": [2, 4]},
		{"family": "tagless", "schemes": ["gag", "gshare"], "entries": [512], "hist_bits": [6, 9]},
		{"family": "tagged", "schemes": ["xor"], "entries": [256, 512], "ways": [4], "hist_bits": [6, 9], "tag_bits": [32], "history": ["pattern", "path-indjmp", "path-peraddr"]},
		{"family": "cascaded", "entries": [256], "ways": [4], "hist_bits": [9]},
		{"family": "ittage", "entries": [128], "tables": [5]}
	]
}`

// TestDifferentialAgainstDirectSim pins the sweep engine bit-for-bit to
// direct single-config simulation: for every point, at worker counts 1
// and 8, the engine's counts must equal what sim.RunAccuracy reports for
// a freshly built config over a fresh streaming trace source. This is the
// harness that keeps the batched, memoized, work-stolen sweep path honest
// against the reference path.
func TestDifferentialAgainstDirectSim(t *testing.T) {
	spec, err := ParseSpec([]byte(diffSpec))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Points) < 8 {
		t.Fatalf("differential grid too small: %d points", len(ex.Points))
	}

	direct := make([]Result, len(ex.Points))
	for i, p := range ex.Points {
		w, err := workload.ByName(p.Workload)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := p.SimConfig()
		if err != nil {
			t.Fatalf("%s: %v", p.Key(), err)
		}
		// The reference path: a fresh looping VM source through the
		// streaming kernel, no memo, no batching, no pool.
		res := sim.RunAccuracy(w, spec.Budget, cfg)
		if res.Err != nil {
			t.Fatalf("%s: %v", p.Key(), res.Err)
		}
		bits, err := p.StorageBits()
		if err != nil {
			t.Fatal(err)
		}
		direct[i] = Result{
			Point:        p,
			StorageBits:  bits,
			Instructions: res.Instructions,
			Branches:     res.Branches,
			Indirect:     res.Indirect.Predictions,
			IndirectMiss: res.Indirect.Mispredicts,
			Overall:      res.Overall.Predictions,
			OverallMiss:  res.Overall.Mispredicts,
			TCCovered:    res.TCCovered,
		}
	}

	// Gang widths: 1 (fusion off), 4, auto (0), and max (every fusable
	// point of a (workload, history) group in one pass).
	for _, width := range []int{1, 4, 0, len(ex.Points)} {
		for _, workers := range []int{1, 8} {
			out, err := Run(context.Background(), spec, Options{Workers: workers, GangWidth: width})
			if err != nil {
				t.Fatalf("gang=%d workers=%d: %v", width, workers, err)
			}
			if len(out.Results) != len(direct) {
				t.Fatalf("gang=%d workers=%d: %d results, want %d", width, workers, len(out.Results), len(direct))
			}
			for i := range direct {
				if out.Results[i] != direct[i] {
					t.Errorf("gang=%d workers=%d point %s:\n sweep  %+v\n direct %+v",
						width, workers, direct[i].Point.Key(), out.Results[i], direct[i])
				}
			}
			if out.GangFallbacks != 0 {
				t.Errorf("gang=%d workers=%d: %d gangs fell back to per-point runs", width, workers, out.GangFallbacks)
			}
			if out.FusedPoints+out.DirectPoints != int64(len(direct)) {
				t.Errorf("gang=%d workers=%d: fused %d + direct %d points, want %d total",
					width, workers, out.FusedPoints, out.DirectPoints, len(direct))
			}
			if width == 1 && out.FusedPoints != 0 {
				t.Errorf("gang=1 fused %d points; width 1 must run everything direct", out.FusedPoints)
			}
			if width != 1 && out.PassesAvoided() == 0 {
				t.Errorf("gang=%d avoided no passes over this multi-family grid", width)
			}
		}
	}
}

const resumeSpec = `{
	"name": "resume",
	"budget": 20000,
	"workloads": ["perl"],
	"grids": [
		{"family": "tagless", "schemes": ["gshare"], "entries": "64..1024*2", "hist_bits": [6, 9]},
		{"family": "btb", "entries": [1024, 2048], "ways": [4]}
	]
}`

func renderAll(t *testing.T, o *Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	o.Report().Render(&buf)
	if err := o.Report().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeByteIdentical interrupts a sweep mid-run via context
// cancellation, resumes it from the manifest, and requires the final
// frontier report and CSV to be byte-identical to an uninterrupted run —
// at a different worker count, for good measure.
func TestResumeByteIdentical(t *testing.T) {
	spec, err := ParseSpec([]byte(resumeSpec))
	if err != nil {
		t.Fatal(err)
	}

	// Reference: uninterrupted, serial, no manifest.
	ref, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, ref)

	// Interrupted run: shard size 1 so progress is fine-grained; the
	// progress hook cancels the context partway through.
	manifest := filepath.Join(t.TempDir(), "sweep.manifest")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{
		Workers: 2, ShardSize: 1, ManifestPath: manifest,
		Log: func(string, ...any) { cancel() },
	}
	if _, err := Run(ctx, spec, opts); err == nil {
		t.Fatal("interrupted run reported success")
	} else if !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted run: %v", err)
	}

	// The manifest must hold some but not all shards, recorded cleanly.
	resumed, err := Run(context.Background(), spec, Options{
		Workers: 4, ShardSize: 1, ManifestPath: manifest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedShards == 0 {
		t.Error("resume simulated everything; no shards came from the manifest")
	}
	if got := renderAll(t, resumed); !bytes.Equal(got, want) {
		t.Errorf("resumed output differs from uninterrupted run:\n--- resumed\n%s\n--- reference\n%s", got, want)
	}

	// A third run resumes everything and touches no simulation.
	again, err := Run(context.Background(), spec, Options{
		Workers: 2, ShardSize: 1, ManifestPath: manifest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.ResumedShards != again.Shards {
		t.Errorf("full resume ran %d/%d shards from scratch", again.Shards-again.ResumedShards, again.Shards)
	}
	if again.SimulatedInstructions != 0 {
		t.Errorf("full resume simulated %d instructions", again.SimulatedInstructions)
	}
	if got := renderAll(t, again); !bytes.Equal(got, want) {
		t.Error("fully resumed output differs from uninterrupted run")
	}
}

// TestResumeRejectsFingerprintMismatch: a manifest recorded for one sweep
// must not be consumed by a different one.
func TestResumeRejectsFingerprintMismatch(t *testing.T) {
	spec, err := ParseSpec([]byte(resumeSpec))
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "sweep.manifest")
	if _, err := Run(context.Background(), spec, Options{Workers: 2, ManifestPath: manifest}); err != nil {
		t.Fatal(err)
	}

	changed := *spec
	changed.Budget = spec.Budget * 2
	_, err = Run(context.Background(), &changed, Options{Workers: 2, ManifestPath: manifest})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("budget change: err = %v, want fingerprint-mismatch error", err)
	}

	// Same spec, different shard size: also a different run shape.
	_, err = Run(context.Background(), spec, Options{Workers: 2, ShardSize: 4, ManifestPath: manifest})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("shard-size change: err = %v, want fingerprint-mismatch error", err)
	}

	// A corrupt manifest is an error, not silently ignored.
	if err := os.WriteFile(manifest, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), spec, Options{Workers: 2, ManifestPath: manifest})
	if err == nil || !strings.Contains(err.Error(), "corrupt manifest") {
		t.Fatalf("corrupt manifest: err = %v, want corrupt-manifest error", err)
	}
}

// TestRunUnknownWorkload: a spec naming a workload the registry does not
// have fails before any simulation.
func TestRunUnknownWorkload(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "nope", "budget": 1000, "workloads": ["spice"],
		"grids": [{"family": "btb"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), spec, Options{}); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v, want unknown-workload error", err)
	}
}

// TestStorageBitsAcrossFamilies pins the cross-family pricing rule:
// btb-family points are priced as their own geometry, target-cache
// points as baseline BTB plus the cache.
func TestStorageBitsAcrossFamilies(t *testing.T) {
	baseline := 256 * 4 * (32 + 3 + 22 + 2 + 1) // default 256x4 BTB
	tests := []struct {
		p    Point
		want int
	}{
		{Point{Workload: "perl", Family: "btb", Scheme: "default", Entries: 1024, Ways: 4}, baseline},
		{Point{Workload: "perl", Family: "btb", Scheme: "2bit", Entries: 1024, Ways: 4}, 256 * 4 * (32 + 3 + 22 + 2 + 1 + 2)},
		{Point{Workload: "perl", Family: "tagless", Scheme: "gshare", Entries: 512, HistBits: 9, History: "pattern"}, baseline + 512*32},
		{Point{Workload: "perl", Family: "tagged", Scheme: "xor", Entries: 256, Ways: 4, HistBits: 9, TagBits: 32, History: "pattern"}, baseline + 256*(32+32+2+1)},
		{Point{Workload: "perl", Family: "cascaded", Scheme: "filtered", Stage1: 128, Entries: 256, Ways: 4, HistBits: 9, TagBits: 32, History: "pattern"}, baseline + 128*32 + 256*(32+32+2+1)},
		{Point{Workload: "perl", Family: "ittage", Stage1: 256, Entries: 128, Tables: 5, TagBits: 9, HistBits: 64, History: "pattern"}, baseline + 256*32 + 5*128*(32+9+2+2+1)},
	}
	for _, tt := range tests {
		got, err := tt.p.StorageBits()
		if err != nil {
			t.Errorf("%s: %v", tt.p.Key(), err)
			continue
		}
		if got != tt.want {
			t.Errorf("%s: StorageBits = %d, want %d", tt.p.Key(), got, tt.want)
		}
	}
}

// TestPlanGangsMatchesRun pins that -expand's plan is what a run does:
// at every width, PlanGangs' passes equal the capture walks a fresh Run
// reports (kept walks and btb gangs in FusedGangs, plus DirectPoints),
// and at auto width the differential grid forms multi-point btb gangs and
// path-history units.
func TestPlanGangsMatchesRun(t *testing.T) {
	spec, err := ParseSpec([]byte(diffSpec))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var btbGang, pathUnit bool
	for lo := 0; lo < len(ex.Points); lo += defaultShardSize {
		for _, u := range planUnits(ex.Points, lo, min(lo+defaultShardSize, len(ex.Points)), 0) {
			p := ex.Points[u[0]]
			btbGang = btbGang || p.Family == "btb" && len(u) >= 2
			pathUnit = pathUnit || strings.HasPrefix(p.History, "path-") && len(u) >= 2
		}
	}
	if !btbGang || !pathUnit {
		t.Errorf("auto width plans a multi-point btb gang: %v, path-history unit: %v; want both", btbGang, pathUnit)
	}
	for _, width := range []int{0, 1, 3, 4} {
		var passes int64
		for _, pl := range PlanGangs(ex.Points, 0, width) {
			passes += int64(pl.Passes)
		}
		out, err := Run(context.Background(), spec, Options{Workers: 2, GangWidth: width})
		if err != nil {
			t.Fatal(err)
		}
		if walks := out.FusedGangs + out.DirectPoints; walks != passes {
			t.Errorf("gang=%d: plan has %d passes, run made %d walks (%d fused, %d direct)",
				width, passes, walks, out.FusedGangs, out.DirectPoints)
		}
	}
}

// TestRunDamagedCapture hands one workload a trace store with a damaged
// block group and requires the sweep to fail cleanly at every gang width:
// an error wrapping trace.ErrCorrupt, no shard holding that workload's
// points in the manifest, and a clean rerun once the capture is healthy
// again — so a failed front-end walk is neither kept nor handed on.
func TestRunDamagedCapture(t *testing.T) {
	spec, err := ParseSpec([]byte(diffSpec))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	const victim, shardSize = "gcc", 8
	workload.TestCaptureTransform = func(name string, budget int64, rep *trace.Replay) trace.BlockSource {
		if name != victim {
			return rep
		}
		var img bytes.Buffer
		if _, err := trace.WriteStore(&img, rep.Open(), trace.StoreOptions{GroupRecords: trace.BlockLen}); err != nil {
			panic(err)
		}
		b := img.Bytes()
		b[len(b)/2] ^= 0x10
		s, err := trace.OpenStore(bytes.NewReader(b), int64(len(b)), 0)
		if err != nil {
			panic(err)
		}
		return s
	}
	workload.ResetMemo()
	defer func() {
		workload.TestCaptureTransform = nil
		workload.ResetMemo()
	}()

	for _, width := range []int{0, 1} {
		manifest := filepath.Join(t.TempDir(), "sweep.manifest")
		opts := Options{Workers: 2, ShardSize: shardSize, GangWidth: width, ManifestPath: manifest}
		if _, err := Run(context.Background(), spec, opts); !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("gang=%d: err = %v, want one wrapping trace.ErrCorrupt", width, err)
		}
		if data, err := os.ReadFile(manifest); err == nil {
			var m manifestFile
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			for _, sh := range m.Shards {
				for _, r := range sh.Results {
					if r.Point.Workload == victim {
						t.Errorf("gang=%d: shard %d with %s's points entered the manifest", width, sh.Index, victim)
						break
					}
				}
			}
		}
	}

	workload.TestCaptureTransform = nil
	workload.ResetMemo()
	for _, width := range []int{0, 1} {
		out, err := Run(context.Background(), spec, Options{Workers: 2, ShardSize: shardSize, GangWidth: width})
		if err != nil {
			t.Fatalf("gang=%d: rerun over a healthy capture: %v", width, err)
		}
		if len(out.Results) != len(ex.Points) {
			t.Fatalf("gang=%d: rerun returned %d results, want %d", width, len(out.Results), len(ex.Points))
		}
	}
}
