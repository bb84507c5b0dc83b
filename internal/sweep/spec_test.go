package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestParseAxis(t *testing.T) {
	tests := []struct {
		in   string
		want []int
	}{
		{"512", []int{512}},
		{" 7 ", []int{7}},
		{"1,2,4,8", []int{1, 2, 4, 8}},
		{"1, 2 , 4", []int{1, 2, 4}},
		{"64..1024*2", []int{64, 128, 256, 512, 1024}},
		{"64..1000*2", []int{64, 128, 256, 512}},
		{"3..3*2", []int{3}},
		{"2..10+4", []int{2, 6, 10}},
		{"2..11+4", []int{2, 6, 10}},
		{"5..5+1", []int{5}},
		{"1..4+1", []int{1, 2, 3, 4}},
	}
	for _, tt := range tests {
		got, err := ParseAxis(tt.in)
		if err != nil {
			t.Errorf("ParseAxis(%q): %v", tt.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("ParseAxis(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseAxisRejects(t *testing.T) {
	for _, in := range []string{
		"", "x", "0", "-4", "1..8", "8..1*2", "4..16*1", "1..8*0",
		"1,2,x", "1..1073741825+1", "1073741825",
		"1..1000000+1", // expands past maxAxisValues
	} {
		if got, err := ParseAxis(in); err == nil {
			t.Errorf("ParseAxis(%q) = %v, want error", in, got)
		}
	}
}

func TestParseSpecExample(t *testing.T) {
	spec, err := ParseSpec([]byte(ExampleSpec))
	if err != nil {
		t.Fatalf("ExampleSpec does not parse: %v", err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatalf("ExampleSpec does not expand: %v", err)
	}
	if len(ex.Points) == 0 {
		t.Fatal("ExampleSpec expands to no points")
	}
	// The expansion covers every family the example names.
	families := map[string]bool{}
	for _, p := range ex.Points {
		families[p.Family] = true
	}
	for _, f := range []string{"btb", "tagless", "tagged", "cascaded", "ittage"} {
		if !families[f] {
			t.Errorf("ExampleSpec expansion has no %s points", f)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	tests := []struct {
		name, spec, errSub string
	}{
		{"unknown field",
			`{"name":"x","budget":1,"workloads":["perl"],"grids":[{"family":"btb","entriez":[4]}]}`,
			"unknown field"},
		{"trailing data",
			`{"name":"x","budget":1,"workloads":["perl"],"grids":[{"family":"btb"}]} {"again":1}`,
			"trailing data"},
		{"unknown family",
			`{"name":"x","budget":1,"workloads":["perl"],"grids":[{"family":"tage"}]}`,
			"unknown family"},
		{"unknown scheme",
			`{"name":"x","budget":1,"workloads":["perl"],"grids":[{"family":"btb","schemes":["3bit"]}]}`,
			"unknown scheme"},
		{"inapplicable axis",
			`{"name":"x","budget":1,"workloads":["perl"],"grids":[{"family":"tagless","ways":[2]}]}`,
			"does not apply"},
		{"history on btb",
			`{"name":"x","budget":1,"workloads":["perl"],"grids":[{"family":"btb","history":["pattern"]}]}`,
			"does not apply"},
		{"unknown history",
			`{"name":"x","budget":1,"workloads":["perl"],"grids":[{"family":"tagless","history":["global"]}]}`,
			"unknown history"},
		{"zero budget",
			`{"name":"x","budget":0,"workloads":["perl"],"grids":[{"family":"btb"}]}`,
			"budget"},
		{"no workloads",
			`{"name":"x","budget":1,"workloads":[],"grids":[{"family":"btb"}]}`,
			"workload"},
		{"duplicate workload",
			`{"name":"x","budget":1,"workloads":["perl","perl"],"grids":[{"family":"btb"}]}`,
			"duplicate"},
		{"no grids",
			`{"name":"x","budget":1,"workloads":["perl"],"grids":[]}`,
			"grid"},
		{"bad name",
			`{"name":"a b","budget":1,"workloads":["perl"],"grids":[{"family":"btb"}]}`,
			"name"},
		{"axis value zero",
			`{"name":"x","budget":1,"workloads":["perl"],"grids":[{"family":"btb","entries":[0]}]}`,
			"out of range"},
		{"not json",
			`nonsense`,
			"bad spec"},
	}
	for _, tt := range tests {
		_, err := ParseSpec([]byte(tt.spec))
		if err == nil {
			t.Errorf("%s: parsed, want error containing %q", tt.name, tt.errSub)
			continue
		}
		if !strings.Contains(err.Error(), tt.errSub) {
			t.Errorf("%s: error %q does not contain %q", tt.name, err, tt.errSub)
		}
	}
}

// TestExpandSkipsInvalidCombinations pins the skip-and-count policy: a
// range axis may sweep past a family constraint at some corners, and
// those corners are dropped and counted rather than failing the sweep.
func TestExpandSkipsInvalidCombinations(t *testing.T) {
	// GAs over 64 entries (6 index bits) with history depths 4..8: depths
	// 7 and 8 cannot fit and are skipped.
	spec, err := ParseSpec([]byte(`{
		"name": "gas-corner", "budget": 1000, "workloads": ["perl"],
		"grids": [{"family": "tagless", "schemes": ["gas"], "entries": [64], "hist_bits": "4..8+1"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Points) != 3 || ex.SkippedInvalid != 2 {
		t.Fatalf("got %d points, %d skipped; want 3 points, 2 skipped", len(ex.Points), ex.SkippedInvalid)
	}
}

// TestExpandAllInvalid pins that a spec whose every combination is
// invalid errors out instead of yielding an empty sweep.
func TestExpandAllInvalid(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "impossible", "budget": 1000, "workloads": ["perl"],
		"grids": [{"family": "btb", "entries": [4], "ways": [8]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Expand(); err == nil || !strings.Contains(err.Error(), "no runnable points") {
		t.Fatalf("Expand = %v, want no-runnable-points error", err)
	}
}

// TestExpandDeterministicOrder pins the canonical expansion order that
// shard indices, manifests and reports all key off.
func TestExpandDeterministicOrder(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "order", "budget": 1000, "workloads": ["perl", "gcc"],
		"grids": [
			{"family": "btb", "entries": [1024, 2048], "ways": [4]},
			{"family": "tagless", "schemes": ["gag", "gshare"], "entries": [512]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, p := range ex.Points {
		keys = append(keys, p.Key())
	}
	want := []string{
		"perl/btb-default-e1024-w4",
		"perl/btb-default-e2048-w4",
		"perl/tagless-gag-e512-h9-pattern",
		"perl/tagless-gshare-e512-h9-pattern",
		"gcc/btb-default-e1024-w4",
		"gcc/btb-default-e2048-w4",
		"gcc/tagless-gag-e512-h9-pattern",
		"gcc/tagless-gshare-e512-h9-pattern",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("expansion order:\n got %v\nwant %v", keys, want)
	}
}

// TestFingerprintSensitivity: the resume fingerprint must change when the
// spec or the shard size changes, and must NOT depend on anything else.
func TestFingerprintSensitivity(t *testing.T) {
	base := func() *Spec {
		s, err := ParseSpec([]byte(`{
			"name": "fp", "budget": 1000, "workloads": ["perl"],
			"grids": [{"family": "btb", "entries": [1024]}]
		}`))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := base()
	if a.Fingerprint(32) != base().Fingerprint(32) {
		t.Error("identical specs produced different fingerprints")
	}
	if a.Fingerprint(32) == a.Fingerprint(16) {
		t.Error("shard size does not affect the fingerprint")
	}
	b := base()
	b.Budget = 2000
	if a.Fingerprint(32) == b.Fingerprint(32) {
		t.Error("budget does not affect the fingerprint")
	}
}

// TestSpecMarshalRoundTrip pins that a marshalled spec parses back to the
// same sweep: absent axes marshal as null, which must read as absent, so
// a generated spec printed as JSON can be fed to tcsweep unchanged.
func TestSpecMarshalRoundTrip(t *testing.T) {
	smoke, err := os.ReadFile("../../sweep_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"sweep_smoke.json": string(smoke), "ExampleSpec": ExampleSpec,
		"diffSpec": diffSpec, "resumeSpec": resumeSpec,
	} {
		spec, err := ParseSpec([]byte(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := checkRoundTrip(spec); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// checkRoundTrip marshals spec, parses the bytes back and requires the
// same fingerprint.
func checkRoundTrip(spec *Spec) error {
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	back, err := ParseSpec(data)
	if err != nil {
		return fmt.Errorf("marshalled spec does not parse back: %v\n%s", err, data)
	}
	if got, want := back.Fingerprint(0), spec.Fingerprint(0); got != want {
		return fmt.Errorf("fingerprint changed across the round trip: %s -> %s\n%s", want, got, data)
	}
	return nil
}
