// Package sweep is the design-space exploration engine: it expands a
// declarative grid specification into thousands of fully-resolved
// (predictor configuration, workload) points, schedules them with
// work-stealing over the shared bounded worker pool, reuses the memoized
// capture store so every workload's trace decodes once per process, and
// checkpoints completed shards to an atomic resume manifest. Results
// aggregate into a Pareto frontier report — indirect-jump misprediction
// rate versus storage bits versus simulated work — rendered as text or
// CSV, or stored as a sweep/v1 JSON document.
//
// The paper itself is a design-space study (tables of target-cache
// geometries, history depths and predictor variants compared on accuracy);
// this package industrializes that method over every predictor family the
// repository has grown: the paper's tagless and tagged target caches, the
// BTB baselines (including modern multi-thousand-entry geometries), the
// cascaded predictor and ITTAGE.
package sweep

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Axis limits: a single axis may not expand beyond maxAxisValues values
// and every value must lie in [1, maxAxisValue]. The bounds reject
// degenerate specs (and fuzzer-constructed bombs) before any cross
// product is taken.
const (
	maxAxisValues = 4096
	maxAxisValue  = 1 << 30
)

// maxPoints bounds a spec's total expansion; crossing it is a spec error,
// not a truncation, so a sweep never silently drops part of its grid.
const maxPoints = 1 << 20

// Axis is one integer dimension of a grid: a set of values swept in
// order. In a spec file an axis is either a JSON number, a JSON array of
// numbers, or a string in the compact range syntax parsed by ParseAxis:
//
//	"512"          one value
//	"1,2,4,8"      an explicit list
//	"64..1024*2"   geometric: 64, 128, 256, 512, 1024
//	"2..10+4"      arithmetic: 2, 6, 10
type Axis struct {
	Values []int
}

// IsZero reports whether the axis was absent from the spec.
func (a Axis) IsZero() bool { return a.Values == nil }

// UnmarshalJSON accepts a number, an array of numbers, or a range string;
// null is an absent axis, which is how MarshalJSON writes one.
func (a *Axis) UnmarshalJSON(data []byte) error {
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "" {
		return fmt.Errorf("sweep: empty axis")
	}
	if trimmed == "null" {
		a.Values = nil
		return nil
	}
	switch trimmed[0] {
	case '"':
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		vals, err := ParseAxis(s)
		if err != nil {
			return err
		}
		a.Values = vals
		return nil
	case '[':
		var vals []int
		if err := json.Unmarshal(data, &vals); err != nil {
			return err
		}
		if err := checkAxisValues(vals); err != nil {
			return err
		}
		a.Values = vals
		return nil
	default:
		var v int
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		if err := checkAxisValues([]int{v}); err != nil {
			return err
		}
		a.Values = []int{v}
		return nil
	}
}

// MarshalJSON renders the axis as its value list.
func (a Axis) MarshalJSON() ([]byte, error) { return json.Marshal(a.Values) }

// or returns the axis values, or the given defaults when the axis was
// absent from the spec.
func (a Axis) or(defaults ...int) []int {
	if a.IsZero() {
		return defaults
	}
	return a.Values
}

func checkAxisValues(vals []int) error {
	if len(vals) == 0 {
		return fmt.Errorf("sweep: axis expands to no values")
	}
	if len(vals) > maxAxisValues {
		return fmt.Errorf("sweep: axis expands to %d values (max %d)", len(vals), maxAxisValues)
	}
	for _, v := range vals {
		if v < 1 || v > maxAxisValue {
			return fmt.Errorf("sweep: axis value %d out of range [1, %d]", v, maxAxisValue)
		}
	}
	return nil
}

// ParseAxis parses the compact axis syntax: a single integer, a
// comma-separated list, or a range "lo..hi*step" (geometric) /
// "lo..hi+step" (arithmetic). Whitespace around tokens is ignored.
func ParseAxis(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("sweep: empty axis")
	}
	if strings.Contains(s, ",") {
		var vals []int
		for _, part := range strings.Split(s, ",") {
			v, err := parseAxisInt(part)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if len(vals) > maxAxisValues {
				return nil, fmt.Errorf("sweep: axis expands to more than %d values", maxAxisValues)
			}
		}
		if err := checkAxisValues(vals); err != nil {
			return nil, err
		}
		return vals, nil
	}
	if lo, rest, ok := strings.Cut(s, ".."); ok {
		loV, err := parseAxisInt(lo)
		if err != nil {
			return nil, err
		}
		var geometric bool
		var hiS, stepS string
		if h, st, ok := strings.Cut(rest, "*"); ok {
			geometric, hiS, stepS = true, h, st
		} else if h, st, ok := strings.Cut(rest, "+"); ok {
			geometric, hiS, stepS = false, h, st
		} else {
			return nil, fmt.Errorf("sweep: range %q needs a step: lo..hi*k (geometric) or lo..hi+k (arithmetic)", s)
		}
		hiV, err := parseAxisInt(hiS)
		if err != nil {
			return nil, err
		}
		stepV, err := parseAxisInt(stepS)
		if err != nil {
			return nil, err
		}
		if hiV < loV {
			return nil, fmt.Errorf("sweep: range %q is empty (hi < lo)", s)
		}
		if geometric && stepV < 2 {
			return nil, fmt.Errorf("sweep: geometric step must be >= 2 in %q", s)
		}
		var vals []int
		for v := loV; v <= hiV; {
			vals = append(vals, v)
			if len(vals) > maxAxisValues {
				return nil, fmt.Errorf("sweep: range %q expands to more than %d values", s, maxAxisValues)
			}
			if geometric {
				if v > maxAxisValue/stepV {
					break
				}
				v *= stepV
			} else {
				v += stepV
			}
		}
		if err := checkAxisValues(vals); err != nil {
			return nil, err
		}
		return vals, nil
	}
	v, err := parseAxisInt(s)
	if err != nil {
		return nil, err
	}
	if err := checkAxisValues([]int{v}); err != nil {
		return nil, err
	}
	return []int{v}, nil
}

func parseAxisInt(s string) (int, error) {
	s = strings.TrimSpace(s)
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("sweep: bad axis integer %q", s)
	}
	if v < 1 || v > maxAxisValue {
		return 0, fmt.Errorf("sweep: axis value %d out of range [1, %d]", v, maxAxisValue)
	}
	return v, nil
}

// Grid is one family's slice of the design space; absent axes take the
// family's canonical defaults (documented on Expand). Axes that a family
// does not use must be absent — a spec that sets, say, ways on a tagless
// grid is rejected rather than silently ignored.
type Grid struct {
	// Family is the predictor family: "btb", "tagless", "tagged",
	// "cascaded" or "ittage".
	Family string `json:"family"`
	// Schemes are family-specific variants:
	//   btb:      "default", "2bit"        (BTB update strategy)
	//   tagless:  "gag", "gas", "gshare"   (index hash)
	//   tagged:   "addr", "concat", "xor"  (index/tag split)
	//   cascaded: "filtered", "unfiltered" (stage-2 allocation filter)
	//   ittage:   (none)
	Schemes []string `json:"schemes,omitempty"`
	// History selects the branch-history providers indexing the target
	// cache: "pattern", "path-branch", "path-control", "path-indjmp",
	// "path-callret", "path-peraddr". Not applicable to btb.
	History []string `json:"history,omitempty"`
	// Entries is the table size: total entries for tagless/tagged/btb,
	// stage-2 entries for cascaded, per-table entries for ittage.
	Entries Axis `json:"entries,omitempty"`
	// Ways is the set associativity (tagged, cascaded stage 2, btb).
	Ways Axis `json:"ways,omitempty"`
	// HistBits is the history depth in bits.
	HistBits Axis `json:"hist_bits,omitempty"`
	// TagBits bounds stored tag width (tagged, cascaded, ittage); for
	// tagged and cascaded grids 32 means a full tag.
	TagBits Axis `json:"tag_bits,omitempty"`
	// Stage1Entries is the cascaded first-stage size, or the ittage base
	// last-target table size.
	Stage1Entries Axis `json:"stage1_entries,omitempty"`
	// Tables is the ittage tagged-table count (1..6); history lengths are
	// the geometric tail of {2,4,8,16,32,64}.
	Tables Axis `json:"tables,omitempty"`
}

// Spec is a declarative sweep: the cross product of each grid's axes,
// against each workload, at one instruction budget.
type Spec struct {
	// Name labels the sweep in reports and benchmark snapshots.
	Name string `json:"name"`
	// Budget is the per-point accuracy-simulation instruction budget.
	Budget int64 `json:"budget"`
	// Workloads are the benchmark names to sweep (see workload.Names).
	Workloads []string `json:"workloads"`
	// Grids are the family slices; the sweep is their union.
	Grids []Grid `json:"grids"`
}

// ParseSpec parses and validates a JSON grid spec. Unknown fields are
// errors, so a typoed axis name cannot silently run a different sweep
// than the one written down.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: bad spec: %w", err)
	}
	// Trailing garbage after the spec object is an error, not ignored.
	if dec.More() {
		return nil, fmt.Errorf("sweep: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// knownFamilies maps each family to the axes it accepts.
var knownFamilies = map[string]struct {
	schemes []string
	axes    map[string]bool // accepted axis names
	history bool
}{
	"btb":      {schemes: []string{"default", "2bit"}, axes: map[string]bool{"entries": true, "ways": true}},
	"tagless":  {schemes: []string{"gag", "gas", "gshare"}, axes: map[string]bool{"entries": true, "hist_bits": true}, history: true},
	"tagged":   {schemes: []string{"addr", "concat", "xor"}, axes: map[string]bool{"entries": true, "ways": true, "hist_bits": true, "tag_bits": true}, history: true},
	"cascaded": {schemes: []string{"filtered", "unfiltered"}, axes: map[string]bool{"entries": true, "ways": true, "hist_bits": true, "tag_bits": true, "stage1_entries": true}, history: true},
	"ittage":   {schemes: nil, axes: map[string]bool{"entries": true, "hist_bits": true, "tag_bits": true, "stage1_entries": true, "tables": true}, history: true},
}

// historyKinds are the accepted history-provider names.
var historyKinds = map[string]bool{
	"pattern": true, "path-branch": true, "path-control": true,
	"path-indjmp": true, "path-callret": true, "path-peraddr": true,
}

// Validate checks the spec's shape: known families and schemes, axes
// meaningful for their family, positive budget, non-empty workload list.
// Workload names are checked against the registry when the engine
// resolves them, so Validate itself stays a pure function of the spec
// bytes.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("sweep: spec needs a name")
	}
	for _, r := range s.Name {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.') {
			return fmt.Errorf("sweep: spec name %q may only contain [A-Za-z0-9._-]", s.Name)
		}
	}
	if s.Budget < 1 {
		return fmt.Errorf("sweep: budget must be positive, got %d", s.Budget)
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("sweep: spec needs at least one workload")
	}
	seenW := map[string]bool{}
	for _, w := range s.Workloads {
		if w == "" {
			return fmt.Errorf("sweep: empty workload name")
		}
		if seenW[w] {
			return fmt.Errorf("sweep: duplicate workload %q", w)
		}
		seenW[w] = true
	}
	if len(s.Grids) == 0 {
		return fmt.Errorf("sweep: spec needs at least one grid")
	}
	for gi, g := range s.Grids {
		fam, ok := knownFamilies[g.Family]
		if !ok {
			return fmt.Errorf("sweep: grid %d: unknown family %q (have %v)", gi, g.Family, familyNames())
		}
		for _, sc := range g.Schemes {
			if !contains(fam.schemes, sc) {
				return fmt.Errorf("sweep: grid %d (%s): unknown scheme %q (have %v)", gi, g.Family, sc, fam.schemes)
			}
		}
		if len(g.History) > 0 && !fam.history {
			return fmt.Errorf("sweep: grid %d (%s): history axis does not apply", gi, g.Family)
		}
		for _, h := range g.History {
			if !historyKinds[h] {
				return fmt.Errorf("sweep: grid %d (%s): unknown history kind %q", gi, g.Family, h)
			}
		}
		for name, axis := range map[string]Axis{
			"entries": g.Entries, "ways": g.Ways, "hist_bits": g.HistBits,
			"tag_bits": g.TagBits, "stage1_entries": g.Stage1Entries, "tables": g.Tables,
		} {
			if !axis.IsZero() && !fam.axes[name] {
				return fmt.Errorf("sweep: grid %d (%s): axis %q does not apply", gi, g.Family, name)
			}
		}
	}
	return nil
}

func familyNames() []string {
	names := make([]string, 0, len(knownFamilies))
	for n := range knownFamilies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func contains(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}
