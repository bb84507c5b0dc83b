// Package faultinject is the test harness that proves the experiment
// suite's fault tolerance: it corrupts or truncates trace-store copies of
// memoized captures, and panics or delays inside chosen simulation cells, all
// through the test hooks the bench and workload packages expose. It is
// ordinary always-compiled code (no build tags): a Plan is inert until
// Install is called, and Install is only reachable from tests.
//
// The invariants its tests pin down:
//
//   - the suite survives every fault class and still runs to completion;
//   - exactly the affected rows render as ERR, with a failure digest;
//   - healthy cells' output is byte-identical to a fault-free run, at
//     any worker count.
package faultinject

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Corruption overwrites Length bytes at Offset of an uncompressed
// TCSTORE1 image of a captured replay with 0xFF. Offsets inside the group
// data fail that group's checksum, so reading it mid-simulation returns a
// trace.ErrCorrupt.
type Corruption struct {
	Offset int
	Length int
}

// Plan describes the faults to inject into one run. The zero value
// injects nothing.
type Plan struct {
	// PanicCells panics on entry to each listed cell; keys are full cell
	// labels ("experiment/workload/config"), values the panic message.
	PanicCells map[string]string
	// PanicPoints panics just before each listed sweep point simulates
	// (inside the sweep engine's per-unit recover scope); keys are point
	// keys ("workload/config-label"), values the panic message.
	PanicPoints map[string]string
	// DelayCells sleeps before each listed cell runs, reshuffling worker
	// scheduling without changing results.
	DelayCells map[string]time.Duration
	// CorruptReplays damages the named workloads' captured replays.
	CorruptReplays map[string]Corruption
	// TruncateReplays drops the given number of trailing bytes of group
	// data from the named workloads' store images after the store is
	// open, as if the file shrank beneath it; reading the last group then
	// comes back short and reports a truncated trace.ErrCorrupt.
	TruncateReplays map[string]int

	mu   sync.Mutex
	hits []string
}

// Triggered returns the labels and workload names whose faults actually
// fired, in firing order; tests assert on it so a plan that never
// triggers cannot pass silently.
func (p *Plan) Triggered() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.hits...)
}

func (p *Plan) hit(what string) {
	p.mu.Lock()
	p.hits = append(p.hits, what)
	p.mu.Unlock()
}

// Install activates the plan: cell faults through bench.TestCellHook,
// sweep-point faults through sweep.TestPointHook,
// capture faults through workload.TestCaptureTransform. It resets the
// workload memo so already-captured healthy replays are re-captured under
// the transform. The returned restore function removes the hooks and
// resets the memo again, so no corrupted capture outlives the plan.
// Plans must not be installed concurrently.
func (p *Plan) Install() (restore func()) {
	prevHook := bench.TestCellHook
	prevPointHook := sweep.TestPointHook
	prevTransform := workload.TestCaptureTransform

	sweep.TestPointHook = func(key string) {
		if msg, ok := p.PanicPoints[key]; ok {
			p.hit("point:" + key)
			panic(msg)
		}
	}
	bench.TestCellHook = func(label string) {
		if msg, ok := p.PanicCells[label]; ok {
			p.hit(label)
			panic(msg)
		}
		if d, ok := p.DelayCells[label]; ok {
			p.hit(label)
			time.Sleep(d)
		}
	}
	workload.TestCaptureTransform = func(name string, budget int64, rep *trace.Replay) trace.BlockSource {
		c, corrupt := p.CorruptReplays[name]
		cut, truncate := p.TruncateReplays[name]
		if !corrupt && !truncate {
			return rep
		}
		var img bytes.Buffer
		if _, err := trace.WriteStore(&img, rep.Open(), trace.StoreOptions{}); err != nil {
			panic(err)
		}
		buf := img.Bytes()
		if corrupt {
			p.hit("corrupt:" + name)
			for i := c.Offset; i < c.Offset+c.Length && i < len(buf); i++ {
				buf[i] = 0xFF
			}
		}
		r := &swappableReader{bytes.NewReader(buf)}
		s, err := trace.OpenStore(r, int64(len(buf)), 0)
		if err != nil {
			panic(fmt.Sprintf("faultinject: %s: damage reaches the store metadata: %v", name, err))
		}
		if truncate {
			p.hit("truncate:" + name)
			// The footer's leading int64 is the index offset: where the
			// group data ends.
			end := int(binary.LittleEndian.Uint64(buf[len(buf)-storeFooterLen:]))
			r.ReaderAt = bytes.NewReader(buf[:max(end-cut, 0)])
		}
		return s
	}
	workload.ResetMemo()

	return func() {
		bench.TestCellHook = prevHook
		sweep.TestPointHook = prevPointHook
		workload.TestCaptureTransform = prevTransform
		workload.ResetMemo()
	}
}

// storeFooterLen is the size of a TCSTORE1 file's fixed footer.
const storeFooterLen = 44

// swappableReader lets the harness replace the bytes beneath an open
// trace.Store, shrinking its file after the footer and index were read.
type swappableReader struct{ io.ReaderAt }
