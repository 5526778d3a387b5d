package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// Span is one recorded call into a layer. Start and End are offsets
// from the recorder's creation on the monotonic clock.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"` // 0 for a root
	Name   string        `json:"name"`
	Req    uint64        `json:"req,omitempty"` // request id; the wire query id when served
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced runs pay one nil check per call site.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Open is a started span, finished by Recorder.End.
type Open struct {
	id, parent uint64
	name       string
	start      time.Duration
}

// ID is the span id children pass as their parent (0 when untraced).
func (o Open) ID() uint64 { return o.id }

// Begin starts a span under parent (0 for a root).
func (r *Recorder) Begin(name string, parent uint64) Open {
	if r == nil {
		return Open{}
	}
	start := time.Since(r.t0)
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return Open{id: id, parent: parent, name: name, start: start}
}

// End finishes a span, tagging it with a request id (0 for none).
func (r *Recorder) End(o Open, req uint64) {
	if r == nil {
		return
	}
	end := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, Span{ID: o.id, Parent: o.parent, Name: o.name, Req: req, Start: o.start, End: end})
	r.mu.Unlock()
}

// Spans returns the finished spans ordered by id.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := slices.Clone(r.spans)
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b Span) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// SelfTimes returns each span's self time, keyed by span id: its
// duration minus the part of its interval that its children cover.
// Overlapping children (concurrent calls) are counted once.
func SelfTimes(spans []Span) map[uint64]time.Duration {
	kids := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, children []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]time.Duration) int { return cmp.Compare(a[0], b[0]) })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// SelfByName sums self time per span name.
func SelfByName(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// WriteSpans writes the spans, one JSON object per line with its self
// time, to path.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	self := SelfTimes(spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			Span
			SelfNS time.Duration `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
