package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the library's public entry points.
type span struct {
	id, parent int // parent 0 means a root span
	name       string
	rep        string // workload and rep the span belongs to
	start, end time.Duration
	lane       int
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced reps pass nil and pay one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
	busy  []bool // lanes in use, so concurrent spans land on separate rows
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil for a root span labelled rep).
func (t *tracer) start(parent *span, name, rep string) *span {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{id: len(t.spans) + 1, name: name, rep: rep, start: now}
	if parent != nil {
		s.parent, s.rep = parent.id, parent.rep
	}
	for s.lane < len(t.busy) && t.busy[s.lane] {
		s.lane++
	}
	if s.lane == len(t.busy) {
		t.busy = append(t.busy, false)
	}
	t.busy[s.lane] = true
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	s.end = now
	t.busy[s.lane] = false
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (children may overlap when they ran concurrently).
func (t *tracer) selfTimes() map[*span]time.Duration {
	children := map[int][]*span{}
	for _, s := range t.spans {
		children[s.parent] = append(children[s.parent], s)
	}
	self := make(map[*span]time.Duration, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.start, s.start), min(k.end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[s] = s.end - s.start - covered
	}
	return self
}

// writeSelfTable prints, per span name, the count and the total and mean
// self time.
func (t *tracer) writeSelfTable(w io.Writer) {
	type agg struct {
		n    int
		self time.Duration
	}
	byName := map[string]*agg{}
	var names []string
	for s, d := range t.selfTimes() {
		a := byName[s.name]
		if a == nil {
			a = &agg{}
			byName[s.name] = a
			names = append(names, s.name)
		}
		a.n++
		a.self += d
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# span self time: %-40s %6s %12s %12s\n", "name", "count", "total_ms", "mean_ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "# span self time: %-40s %6d %12.3f %12.3f\n", n, a.n,
			ms(a.self), ms(a.self)/float64(a.n))
	}
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), loadable in chrome://tracing
// and Perfetto. The machine header rides along as metadata.
func (t *tracer) writeChromeTrace(path string, header map[string]string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Cat: "benchmark", Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "rep": s.rep},
		})
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       header,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
