package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// row builds a synthetic result row for frontier tests.
func mkResult(workload string, bits int, indirect, miss int64) Result {
	return Result{
		Point:        Point{Workload: workload, Family: "btb", Scheme: "default", Entries: bits, Ways: 1},
		StorageBits:  bits,
		Indirect:     indirect,
		IndirectMiss: miss,
	}
}

func frontierKeys(rep *Report) map[int]bool {
	out := map[int]bool{}
	for i, r := range rep.Rows {
		if r.Frontier {
			out[i] = true
		}
	}
	return out
}

func TestFrontierDominance(t *testing.T) {
	o := &Outcome{
		Spec: &Spec{Name: "t", Budget: 1, Workloads: []string{"w"}},
		Results: []Result{
			mkResult("w", 100, 1000, 100), // 10% at 100 bits: frontier
			mkResult("w", 200, 1000, 50),  // 5% at 200 bits: frontier
			mkResult("w", 300, 1000, 80),  // 8% at 300 bits: dominated by the 200-bit point
			mkResult("w", 400, 1000, 50),  // 5% at 400 bits: dominated (same rate, more bits)
			mkResult("w", 50, 1000, 300),  // 30% at 50 bits: frontier (cheapest)
		},
	}
	rep := o.Report()
	want := map[int]bool{0: true, 1: true, 4: true}
	got := frontierKeys(rep)
	for i := range o.Results {
		if got[i] != want[i] {
			t.Errorf("row %d: frontier = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestFrontierTies pins non-strict dominance: identical (rate, bits)
// points are all on the frontier, but a point matched on one axis and
// beaten on the other is dominated.
func TestFrontierTies(t *testing.T) {
	o := &Outcome{
		Spec: &Spec{Name: "t", Budget: 1, Workloads: []string{"w"}},
		Results: []Result{
			mkResult("w", 100, 1000, 100), // twin A: frontier
			mkResult("w", 100, 1000, 100), // twin B: frontier
			mkResult("w", 100, 1000, 200), // same bits, worse rate: dominated
		},
	}
	got := frontierKeys(o.Report())
	if !got[0] || !got[1] || got[2] {
		t.Fatalf("tie frontier = %v, want rows 0 and 1 only", got)
	}
}

// TestFrontierPerWorkload pins that dominance is computed within each
// workload: a config that loses on an easy workload may still be optimal
// on a hard one.
func TestFrontierPerWorkload(t *testing.T) {
	o := &Outcome{
		Spec: &Spec{Name: "t", Budget: 1, Workloads: []string{"a", "b"}},
		Results: []Result{
			mkResult("a", 100, 1000, 100),
			mkResult("a", 200, 1000, 500), // dominated within a
			mkResult("b", 200, 1000, 500), // frontier within b (only point)
		},
	}
	got := frontierKeys(o.Report())
	if !got[0] || got[1] || !got[2] {
		t.Fatalf("per-workload frontier = %v, want rows 0 and 2", got)
	}
}

func TestReportRenderAndCSV(t *testing.T) {
	o := &Outcome{
		Spec: &Spec{Name: "render", Budget: 123, Workloads: []string{"w"}},
		Results: []Result{
			mkResult("w", 100, 1000, 100),
			mkResult("w", 300, 1000, 500),
		},
	}
	rep := o.Report()
	var text bytes.Buffer
	rep.Render(&text)
	if !strings.Contains(text.String(), "Pareto frontier: w (render, budget 123)") {
		t.Errorf("render missing title:\n%s", text.String())
	}
	if !strings.Contains(text.String(), "10.0000%") {
		t.Errorf("render missing rate:\n%s", text.String())
	}
	if !strings.Contains(text.String(), "1 of 2 swept configurations are Pareto-optimal (1 dominated)") {
		t.Errorf("render missing summary note:\n%s", text.String())
	}
	var csv bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows:\n%s", len(lines), csv.String())
	}
	if !strings.HasSuffix(lines[1], ",true") || !strings.HasSuffix(lines[2], ",false") {
		t.Errorf("CSV frontier flags wrong:\n%s", csv.String())
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	o := &Outcome{
		Spec:        &Spec{Name: "doc", Budget: 5, Workloads: []string{"w"}},
		Fingerprint: "abc123",
		Results:     []Result{mkResult("w", 100, 1000, 100)},
	}
	data, err := o.Report().Document().Encode()
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != DocumentSchema || doc.Name != "doc" || doc.Fingerprint != "abc123" ||
		doc.Points != 1 || len(doc.Rows) != 1 {
		t.Fatalf("round trip lost data: %+v", doc)
	}
	if !doc.Rows[0].Frontier || doc.Rows[0].MispredictRate != 0.1 {
		t.Fatalf("round trip lost row annotations: %+v", doc.Rows[0])
	}
	// Re-encoding an identical report is byte-identical.
	data2, err := o.Report().Document().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("document encoding is not deterministic")
	}
}
