package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tree builds root(0..100) > a(10..40) > a1(15..20), a2(30..40);
// root > b(50..90) > b1(60..70). Times in µs.
func tree() []Span {
	us := func(v int) time.Duration { return time.Duration(v) * time.Microsecond }
	return []Span{
		{ID: 1, Name: "root", Start: us(0), End: us(100)},
		{ID: 2, Parent: 1, Name: "a", Start: us(10), End: us(40)},
		{ID: 3, Parent: 2, Name: "leaf", Start: us(15), End: us(20)},
		{ID: 4, Parent: 2, Name: "leaf", Start: us(30), End: us(40)},
		{ID: 5, Parent: 1, Name: "b", Start: us(50), End: us(90)},
		{ID: 6, Parent: 5, Name: "leaf", Start: us(60), End: us(70)},
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	spans := tree()
	self := SelfTimes(spans)
	var sum time.Duration
	for _, s := range spans {
		if self[s.ID] < 0 {
			t.Errorf("span %d (%s) has negative self time %v", s.ID, s.Name, self[s.ID])
		}
		sum += self[s.ID]
	}
	if sum != spans[0].Dur() {
		t.Errorf("self times sum to %v, root lasts %v", sum, spans[0].Dur())
	}
	want := map[uint64]time.Duration{1: 30, 2: 15, 3: 5, 4: 10, 5: 30, 6: 10}
	for id, w := range want {
		if self[id] != w*time.Microsecond {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w*time.Microsecond)
		}
	}
	by := SelfByName(spans)
	if by["leaf"] != 25*time.Microsecond || by["root"] != 30*time.Microsecond {
		t.Errorf("SelfByName = %v", by)
	}
}

func TestSelfTimesOverlappingChildrenStayNonNegative(t *testing.T) {
	// Two concurrent children covering the parent twice over, one
	// sticking out past its end: the union is clipped, never
	// subtracted twice.
	spans := []Span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 0, End: 80},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 120},
	}
	if got := SelfTimes(spans)[1]; got != 0 {
		t.Errorf("parent self = %v, want 0", got)
	}
	spans[2].Start, spans[2].End = 90, 95
	if got := SelfTimes(spans)[1]; got != 15 {
		t.Errorf("parent self with gap = %v, want 15", got)
	}
}

func TestRecorderRecordsNestedSpans(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("round", 0)
	child := r.Begin("query", root.ID())
	r.End(child, 7)
	r.End(root, 0)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
	var nilRec *Recorder
	o := nilRec.Begin("x", 0)
	nilRec.End(o, 0)
	if o.ID() != 0 || nilRec.Spans() != nil {
		t.Error("nil recorder must record nothing")
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := WriteSpans(path, tree()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var total time.Duration
	lines := 0
	for sc.Scan() {
		var line struct {
			SelfNS time.Duration `json:"self_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		total += line.SelfNS
		lines++
	}
	if lines != 6 || total != 100*time.Microsecond {
		t.Errorf("wrote %d lines with self total %v", lines, total)
	}
}
