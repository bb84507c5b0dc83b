package benchfmt

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const sampleFile = `suite: tcsim
accuracy-budget: 2000000
model: fast

goos: linux
BenchmarkSuite/exp=table1 1 5.2104e+09 ns/op 40 cells/op 2e+06 instrs/op
BenchmarkSuite/exp=table2 1 1.0352e+10 ns/op 42 cells/op 2e+06 instrs/op
some stray log line the format says to ignore
model: event
BenchmarkSuite/exp=table2 1 1.04e+10 ns/op 42 cells/op 2e+06 instrs/op
`

func TestReaderBasics(t *testing.T) {
	results, probs, err := ReadAll(strings.NewReader(sampleFile), "sample")
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 0 {
		t.Fatalf("problems: %v", probs)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}

	r := results[0]
	if r.FullName != "BenchmarkSuite/exp=table1" || r.Iters != 1 {
		t.Errorf("result 0 = %+v", r)
	}
	if v, ok := r.Value("ns/op"); !ok || v != 5.2104e9 {
		t.Errorf("ns/op = %v, %v", v, ok)
	}
	if v, ok := r.Value("cells/op"); !ok || v != 40 {
		t.Errorf("cells/op = %v, %v", v, ok)
	}
	if got := r.BaseName(); got != "BenchmarkSuite" {
		t.Errorf("BaseName = %q", got)
	}
	if v, ok := r.Lookup("exp"); !ok || v != "table1" {
		t.Errorf("Lookup(exp) = %q, %v", v, ok)
	}
	if v, ok := r.Lookup("model"); !ok || v != "fast" {
		t.Errorf("Lookup(model) = %q, %v", v, ok)
	}
	if v, ok := r.Lookup("suite"); !ok || v != "tcsim" {
		t.Errorf("Lookup(suite) = %q, %v", v, ok)
	}

	// The third result follows a "model: event" override.
	if v, ok := results[2].Lookup("model"); !ok || v != "event" {
		t.Errorf("override: Lookup(model) = %q, %v", v, ok)
	}
	// Config snapshots are per-result: the first result keeps "fast".
	if v, _ := results[0].Lookup("model"); v != "fast" {
		t.Errorf("snapshot leaked: result 0 model = %q", v)
	}
}

func TestReaderGomaxprocs(t *testing.T) {
	in := "BenchmarkDecode/size=1024-8 100 12.5 ns/op\n"
	results, _, err := ReadAll(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	if got := r.BaseName(); got != "BenchmarkDecode" {
		t.Errorf("BaseName = %q", got)
	}
	if v, ok := r.Lookup("size"); !ok || v != "1024" {
		t.Errorf("size = %q, %v", v, ok)
	}
	if v, ok := r.Lookup("gomaxprocs"); !ok || v != "8" {
		t.Errorf("gomaxprocs = %q, %v", v, ok)
	}
}

func TestReaderProblems(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkTooFewFields 10",                              // no value pair
		"BenchmarkOddFields 10 12.5 ns/op 44",                   // value without unit
		"BenchmarkBadIters zero 12.5 ns/op",                     // non-integer count
		"BenchmarkNegIters -4 12.5 ns/op",                       // non-positive count
		"BenchmarkHugeIters 99999999999999999999999 12.5 ns/op", // overflows int64
		"BenchmarkBadValue 10 twelve ns/op",                     // non-numeric value
		"BenchmarkGood 10 12.5 ns/op",                           // fine
		"Benchmarklowercase 10 12.5 ns/op",                      // lowercase after prefix: plain text
	}, "\n")
	results, probs, err := ReadAll(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].FullName != "BenchmarkGood" {
		t.Fatalf("results = %+v, want only BenchmarkGood", results)
	}
	if len(probs) != 6 {
		t.Fatalf("got %d problems, want 6: %v", len(probs), probs)
	}
	if probs[0].Line != 1 || !strings.Contains(probs[0].String(), "t:1:") {
		t.Errorf("problem position: %v", probs[0])
	}
}

func TestReaderEmptyConfigValueClears(t *testing.T) {
	in := "commit: abc\ncommit:\nBenchmarkX 1 2 ns/op\n"
	results, _, err := ReadAll(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := results[0].Lookup("commit"); ok {
		t.Error("cleared config key should not resolve")
	}
}

func TestReaderNonUTF8(t *testing.T) {
	in := "Benchmark\xff\xfeGarbage 1 2 ns/op\nBenchmarkOK 1 2 ns/op\n"
	results, _, err := ReadAll(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	// The garbage name still parses as a name (the format is bytes, not
	// UTF-8); what matters is no panic and the clean line surviving.
	found := false
	for _, r := range results {
		if r.FullName == "BenchmarkOK" {
			found = true
		}
	}
	if !found {
		t.Error("clean line lost after non-UTF-8 line")
	}
}

func TestWriterRoundTrip(t *testing.T) {
	results, _, err := ReadAll(strings.NewReader(sampleFile), "in")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range results {
		if err := w.Write(&results[i]); err != nil {
			t.Fatal(err)
		}
	}
	again, probs, err := ReadAll(bytes.NewReader(buf.Bytes()), "rt")
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 0 {
		t.Fatalf("round trip produced problems: %v", probs)
	}
	if !resultsEqual(results, again) {
		t.Errorf("round trip drifted:\n-- first --\n%s\n-- wrote --\n%s", sampleFile, buf.String())
	}
}

// resultsEqual compares parsed results ignoring line numbers, with
// bit-exact float comparison (NaN-safe).
func resultsEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.FullName != y.FullName || x.Iters != y.Iters ||
			len(x.Values) != len(y.Values) || len(x.Config) != len(y.Config) {
			return false
		}
		for j := range x.Values {
			if math.Float64bits(x.Values[j].Value) != math.Float64bits(y.Values[j].Value) ||
				x.Values[j].Unit != y.Values[j].Unit {
				return false
			}
		}
		for j := range x.Config {
			if x.Config[j] != y.Config[j] {
				return false
			}
		}
	}
	return true
}

// TestMachineConfig: the machine lines carry every MachineKeys key in
// order, with non-empty values that survive a write/read round trip.
func TestMachineConfig(t *testing.T) {
	cfg := MachineConfig()
	if len(cfg) != len(MachineKeys) {
		t.Fatalf("MachineConfig has %d entries, MachineKeys %d", len(cfg), len(MachineKeys))
	}
	for i, kv := range cfg {
		if kv.Key != MachineKeys[i] || kv.Value == "" {
			t.Errorf("entry %d = %+v, want key %q with a value", i, kv, MachineKeys[i])
		}
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(&Result{FullName: "BenchmarkX", Iters: 1,
		Values: []Value{{1, "ns/op"}}, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	got, probs, err := ReadAll(&buf, "machine")
	if err != nil || len(probs) != 0 || len(got) != 1 {
		t.Fatalf("read back %d results, problems %v, err %v", len(got), probs, err)
	}
	for _, kv := range cfg {
		if v, ok := got[0].Lookup(kv.Key); !ok || v != kv.Value {
			t.Errorf("Lookup(%q) = %q, %v; want %q", kv.Key, v, ok, kv.Value)
		}
	}
}
