package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Row is one sweep result annotated for reporting: its misprediction rate
// and whether it sits on its workload's Pareto frontier.
type Row struct {
	Result
	// MispredictRate is the indirect-jump misprediction rate (0..1).
	MispredictRate float64 `json:"mispredict_rate"`
	// Frontier marks the point Pareto-optimal within its workload under
	// (minimize mispredict rate, minimize storage bits).
	Frontier bool `json:"frontier"`
}

// Report is a sweep's result set with frontiers computed, ready to render
// or store.
type Report struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Budget      int64  `json:"budget"`
	// Workloads preserves the spec's workload order for rendering.
	Workloads      []string `json:"workloads"`
	Points         int      `json:"points"`
	SkippedInvalid int      `json:"skipped_invalid,omitempty"`
	// Rows are all results in canonical expansion order.
	Rows []Row `json:"rows"`
}

// Report computes the per-workload Pareto frontiers over the outcome.
//
// Dominance is non-strict: point a dominates b when a is no worse on both
// axes and strictly better on at least one. Ties on both axes dominate
// neither way, so geometries with identical accuracy and cost all appear
// on the frontier.
func (o *Outcome) Report() *Report {
	rep := &Report{
		Name:           o.Spec.Name,
		Fingerprint:    o.Fingerprint,
		Budget:         o.Spec.Budget,
		Workloads:      append([]string(nil), o.Spec.Workloads...),
		Points:         len(o.Results),
		SkippedInvalid: o.SkippedInvalid,
		Rows:           make([]Row, len(o.Results)),
	}
	byWorkload := map[string][]int{}
	for i, r := range o.Results {
		rep.Rows[i] = Row{Result: r, MispredictRate: r.Rate()}
		byWorkload[r.Point.Workload] = append(byWorkload[r.Point.Workload], i)
	}
	for _, idxs := range byWorkload {
		markFrontier(rep.Rows, idxs)
	}
	return rep
}

// markFrontier sets Frontier on the Pareto-optimal subset of rows[idxs].
// One sorted sweep: visiting storage-bit groups in ascending order, a row
// survives iff it has the minimum rate within its group and that rate
// beats (strictly) every smaller-storage group's best.
func markFrontier(rows []Row, idxs []int) {
	order := append([]int(nil), idxs...)
	sort.Slice(order, func(a, b int) bool {
		ra, rb := rows[order[a]], rows[order[b]]
		if ra.StorageBits != rb.StorageBits {
			return ra.StorageBits < rb.StorageBits
		}
		return ra.MispredictRate < rb.MispredictRate
	})
	best := 2.0 // above any possible rate
	for gi := 0; gi < len(order); {
		ge := gi
		groupMin := rows[order[gi]].MispredictRate
		for ge < len(order) && rows[order[ge]].StorageBits == rows[order[gi]].StorageBits {
			if r := rows[order[ge]].MispredictRate; r < groupMin {
				groupMin = r
			}
			ge++
		}
		if groupMin < best {
			for i := gi; i < ge; i++ {
				if rows[order[i]].MispredictRate == groupMin {
					rows[order[i]].Frontier = true
				}
			}
			best = groupMin
		}
		gi = ge
	}
}

// FrontierRows returns the frontier rows for one workload, cheapest
// storage first, in deterministic order.
func (r *Report) FrontierRows(workload string) []Row {
	var out []Row
	for _, row := range r.Rows {
		if row.Frontier && row.Point.Workload == workload {
			out = append(out, row)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].StorageBits != out[b].StorageBits {
			return out[a].StorageBits < out[b].StorageBits
		}
		return out[a].Point.Key() < out[b].Point.Key()
	})
	return out
}

// Tables renders the report as one frontier table per workload, in the
// spec's workload order. The output is a pure function of the result set:
// counts and derived rates only, so it is byte-identical across runs.
func (r *Report) Tables() []*stats.Table {
	var tables []*stats.Table
	for _, w := range r.Workloads {
		t := stats.NewTable(
			fmt.Sprintf("Pareto frontier: %s (%s, budget %d)", w, r.Name, r.Budget),
			"configuration", "storage (bits)", "indirect", "mispredicts", "miss rate")
		total, dominated := 0, 0
		for _, row := range r.Rows {
			if row.Point.Workload != w {
				continue
			}
			total++
			if !row.Frontier {
				dominated++
			}
		}
		for _, row := range r.FrontierRows(w) {
			t.AddRow(
				row.Point.ConfigLabel(),
				fmt.Sprintf("%d", row.StorageBits),
				fmt.Sprintf("%d", row.Indirect),
				fmt.Sprintf("%d", row.IndirectMiss),
				fmt.Sprintf("%.4f%%", 100*row.MispredictRate),
			)
		}
		t.AddNote("%d of %d swept configurations are Pareto-optimal (%d dominated).",
			total-dominated, total, dominated)
		tables = append(tables, t)
	}
	return tables
}

// Render writes the frontier tables as text.
func (r *Report) Render(w io.Writer) {
	for i, t := range r.Tables() {
		if i > 0 {
			fmt.Fprintln(w)
		}
		t.Render(w)
	}
	if r.SkippedInvalid > 0 {
		fmt.Fprintf(w, "\nnote: %d grid combinations were skipped as invalid for their family.\n", r.SkippedInvalid)
	}
}

// WriteCSV writes every swept point (not just the frontier) as CSV, one
// row per point in canonical expansion order, with the frontier flag as a
// column.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "workload,configuration,family,storage_bits,instructions,indirect,indirect_miss,miss_rate,frontier"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		_, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%.6f,%t\n",
			row.Point.Workload, row.Point.ConfigLabel(), row.Point.Family,
			row.StorageBits, row.Instructions, row.Indirect, row.IndirectMiss,
			row.MispredictRate, row.Frontier)
		if err != nil {
			return err
		}
	}
	return nil
}

// DocumentSchema is the schema identifier carried by sweep documents.
const DocumentSchema = "sweep/v1"

// Document is the stored form of a report: the Report shape plus the
// schema tag, so a reader can identify and parse it.
type Document struct {
	Schema string `json:"schema"`
	Report
}

// Document wraps the report with its schema tag.
func (r *Report) Document() *Document {
	return &Document{Schema: DocumentSchema, Report: *r}
}

// Encode renders the document as deterministic JSON.
func (d *Document) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseDocument decodes and sanity-checks a sweep/v1 document.
func ParseDocument(data []byte) (*Document, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	var d Document
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("sweep: bad document: %w", err)
	}
	if d.Schema != DocumentSchema {
		return nil, fmt.Errorf("sweep: document schema %q, want %q", d.Schema, DocumentSchema)
	}
	if d.Points != len(d.Rows) {
		return nil, fmt.Errorf("sweep: document claims %d points but carries %d rows", d.Points, len(d.Rows))
	}
	return &d, nil
}
