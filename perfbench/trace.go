package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a module boundary. Spans of one request or
// session share Op; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and boundary counts in memory until the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	nextID int64
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]int64)}
}

// begin opens a span now and returns its ID; end closes it.
func (t *tracer) begin(name string, op, parent int64) int64 {
	return t.beginAt(name, op, parent, time.Now())
}

// beginAt opens a span that started at start.
func (t *tracer) beginAt(name string, op, parent int64, start time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Op: op, Name: name, Start: int64(start.Sub(t.t0))})
	return t.nextID
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose start and end the caller already measured.
func (t *tracer) record(name string, op, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.beginAt(name, op, parent, start)
	t.mu.Lock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// count adds n to the boundary counter name.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is one span name's total and self time: self time is the
// span's duration minus the part of its interval its children cover.
type layerTime struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates total and self time per span name.
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*layerTime)
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Spans++
		lt.TotalMs += ms(s.dur())
		lt.SelfMs += ms(s.dur() - covered(s, children[s.ID]))
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// spanMs collects the durations in ms of the spans with the given name.
func spanMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// traceFile is what a traced run writes out.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Layers   []layerTime      `json:"layers"`
	Counts   map[string]int64 `json:"counts"`
	Spans    []span           `json:"spans"`
}

// write stores the trace as JSON under dir and returns the file path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	spans := t.snapshot()
	t.mu.Lock()
	counts := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	t.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, Layers: selfTimes(spans), Counts: counts, Spans: spans}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	buf, err := json.Marshal(&tf)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
