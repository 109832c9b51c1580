package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed region: a call the benchmark made into a layer's
// public function. Times are wall-clock nanoseconds so that spans taken
// in different processes on the same host share one time base. Parent
// indexes the enclosing span in the same process (-1 for none); RID is
// the request id that joins spans across processes (0 when the op
// carries none).
type Span struct {
	Name   string `json:"n"`
	Start  int64  `json:"s"`
	End    int64  `json:"e"`
	Parent int    `json:"p"`
	RID    int64  `json:"r,omitempty"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. While off, Begin
// costs one atomic load and records nothing; a nil Tracer is off.
type Tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []Span
}

// SetOn turns recording on or off.
func (t *Tracer) SetOn(on bool) { t.on.Store(on) }

// On reports whether spans are being recorded.
func (t *Tracer) On() bool { return t != nil && t.on.Load() }

// Begin opens a span and returns its handle (-1 while tracing is off).
func (t *Tracer) Begin(name string, parent int, rid int64) int {
	return t.BeginAt(name, parent, rid, time.Now())
}

// BeginAt is Begin with an explicit start time — the root span of an op
// starts at its intended send, not when a slot picked it up.
func (t *Tracer) BeginAt(name string, parent int, rid int64, start time.Time) int {
	if !t.On() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: start.UnixNano(), Parent: parent, RID: rid})
	return len(t.spans) - 1
}

// End closes a span opened by Begin; a -1 handle is ignored.
func (t *Tracer) End(h int) {
	if h < 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// Take returns the recorded spans and clears the buffer.
func (t *Tracer) Take() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans stores spans as JSON at path (the home process's dump).
func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readSpans loads a dump written by writeSpans.
func readSpans(path string) ([]Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []Span
	err = json.Unmarshal(data, &spans)
	return spans, err
}

// Join merges spans recorded in another process into local: each
// remote span is re-parented under the innermost local span with the
// same request id whose interval contains it. Remote spans without a
// match (no request id, or no enclosing local span) are appended as
// roots. The result is one tree per op across processes.
func Join(local, remote []Span) []Span {
	out := append([]Span(nil), local...)
	byRID := make(map[int64][]int)
	for i, s := range local {
		if s.RID != 0 {
			byRID[s.RID] = append(byRID[s.RID], i)
		}
	}
	for _, r := range remote {
		r.Parent = -1
		best := -1
		for _, i := range byRID[r.RID] {
			l := local[i]
			if l.Start > r.Start || l.End < r.End {
				continue
			}
			if best < 0 || l.Dur() < local[best].Dur() {
				best = i
			}
		}
		r.Parent = best
		out = append(out, r)
	}
	return out
}

// spanSelfTimes computes each span's self time: its duration minus the
// time covered by its direct children, each child clipped to the
// parent's interval and overlapping children counted once. Within one
// tree the self times sum to the root's duration, which is what lets
// per-layer numbers add up to the end-to-end latency.
func spanSelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	type iv struct{ a, b int64 }
	for p, s := range spans {
		ivs := make([]iv, 0, len(children[p]))
		for _, k := range children[p] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, curA, curB int64
		for i, v := range ivs {
			if i == 0 || v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		out[p] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// Durations groups span lengths by name.
func Durations(spans []Span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.Dur())
	}
	return out
}
