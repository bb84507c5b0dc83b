package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestCodecWorkloads runs every workload's capture through the
// compressed codec: two full default-size groups and a partial third,
// so the predictor table resets twice mid-capture. Every record must come
// back equal, field for field, to the in-memory capture, and the file
// must stay under the size the workload's predictability allows.
func TestCodecWorkloads(t *testing.T) {
	const n = 2*16*trace.BlockLen + 30_000
	// maxBytesPerRecord is each file's size bound, about 1.5× what the
	// codec wrote when these were set (0.042-0.206 B/record; raw groups
	// take 28).
	maxBytesPerRecord := map[string]float64{
		"compress": 0.10, "gcc": 0.30, "go": 0.18, "ijpeg": 0.07,
		"m88ksim": 0.13, "perl": 0.21, "vortex": 0.14, "xlisp": 0.22,
	}
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			mem := trace.Capture(trace.NewLimit(w.Open(), n))
			var img bytes.Buffer
			if _, err := trace.WriteStore(&img, mem.Open(), trace.StoreOptions{Compress: true}); err != nil {
				t.Fatal(err)
			}
			s, err := trace.OpenStore(bytes.NewReader(img.Bytes()), int64(img.Len()), 0)
			if err != nil {
				t.Fatal(err)
			}
			if s.NumBlocks() != mem.NumBlocks() {
				t.Fatalf("store holds %d blocks, the capture %d", s.NumBlocks(), mem.NumBlocks())
			}
			for bi := 0; bi < mem.NumBlocks(); bi++ {
				got, err := s.BlockAt(bi)
				if err != nil {
					t.Fatalf("BlockAt(%d): %v", bi, err)
				}
				want, _ := mem.BlockAt(bi)
				if got.Len() != want.Len() {
					t.Fatalf("block %d holds %d records, want %d", bi, got.Len(), want.Len())
				}
				var a, b trace.Record
				for i := 0; i < want.Len(); i++ {
					got.Record(i, &a)
					want.Record(i, &b)
					if a != b {
						t.Fatalf("record %d: got %+v, want %+v", bi*trace.BlockLen+i, a, b)
					}
				}
			}
			per := float64(img.Len()) / n
			t.Logf("%s: %d bytes, %.3f B/record", w.Name, img.Len(), per)
			if max, ok := maxBytesPerRecord[w.Name]; !ok || per > max {
				t.Errorf("%s: %.3f B/record, bound %v", w.Name, per, max)
			}
		})
	}
}
