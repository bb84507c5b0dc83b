package sweep

import (
	"strings"
	"testing"
)

// FuzzParseSpec drives the spec parser — the axis range DSL, the JSON
// shapes, the validation tables — with arbitrary bytes. The property:
// ParseSpec either errors or returns a spec whose expansion terminates
// within the documented bounds and which survives json.Marshal and
// ParseSpec with its fingerprint unchanged; it never panics and never
// silently accepts a spec that then fails its own Validate.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(ExampleSpec))
	f.Add([]byte(diffSpec))
	f.Add([]byte(resumeSpec))
	f.Add([]byte(`{"name":"x","budget":1,"workloads":["perl"],"grids":[{"family":"btb"}]}`))
	f.Add([]byte(`{"name":"x","budget":1,"workloads":["w"],"grids":[{"family":"tagless","schemes":["gas"],"entries":"64..4096*2","hist_bits":"1..16+1"}]}`))
	f.Add([]byte(`{"name":"x","budget":1,"workloads":["w"],"grids":[{"family":"ittage","tables":"1..6+1","tag_bits":[4,32]}]}`))
	f.Add([]byte(`{"name":"x","budget":9,"workloads":["a","b"],"grids":[{"family":"cascaded","history":["path-peraddr"],"stage1_entries":[64]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a spec its own Validate rejects: %v", err)
		}
		if err := checkRoundTrip(spec); err != nil {
			t.Fatal(err)
		}
		ex, err := spec.Expand()
		if err != nil {
			// Expansion may legitimately reject (all-invalid grids, point
			// bound) — but only with a sweep error, not a panic.
			if !strings.Contains(err.Error(), "sweep:") {
				t.Fatalf("Expand error without package prefix: %v", err)
			}
			return
		}
		if len(ex.Points) == 0 || len(ex.Points) > maxPoints {
			t.Fatalf("Expand returned %d points outside (0, %d]", len(ex.Points), maxPoints)
		}
		// Every expanded point must be individually valid and priceable.
		for _, p := range ex.Points[:min(len(ex.Points), 64)] {
			if err := p.Validate(); err != nil {
				t.Fatalf("expansion emitted invalid point %s: %v", p.Key(), err)
			}
			if bits, err := p.StorageBits(); err != nil || bits <= 0 {
				t.Fatalf("point %s: StorageBits = %d, %v", p.Key(), bits, err)
			}
		}
	})
}

// FuzzParseAxis exercises the compact range DSL on its own: whatever the
// input, ParseAxis must terminate and either error or return values
// inside the documented bounds.
func FuzzParseAxis(f *testing.F) {
	for _, seed := range []string{
		"512", "1,2,4,8", "64..1024*2", "2..10+4", "1..4096+1",
		"..", "*", "+", "5..5*2", "1..1073741824*2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		vals, err := ParseAxis(s)
		if err != nil {
			return
		}
		if len(vals) == 0 || len(vals) > maxAxisValues {
			t.Fatalf("ParseAxis(%q) returned %d values", s, len(vals))
		}
		for _, v := range vals {
			if v < 1 || v > maxAxisValue {
				t.Fatalf("ParseAxis(%q) returned out-of-range %d", s, v)
			}
		}
	})
}
