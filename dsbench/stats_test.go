package main

import (
	"math"
	"testing"
	"time"
)

func ms(vals ...int) Samples {
	s := make(Samples, len(vals))
	for i, v := range vals {
		s[i] = time.Duration(v) * time.Millisecond
	}
	return s
}

func TestRankNearest(t *testing.T) {
	s := ms(5, 1, 4, 2, 3, 10, 9, 8, 7, 6) // 1..10, shuffled
	for _, c := range []struct {
		p    float64
		want int
	}{{10, 1}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10}, {0.1, 1}} {
		if got := s.Rank(c.p); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("Rank(%v) = %v, want %dms", c.p, got, c.want)
		}
	}
	if s.Median() != 5*time.Millisecond {
		t.Errorf("Median = %v", s.Median())
	}
	if s.Mean() != 5500*time.Microsecond || (Samples{}).Mean() != 0 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if (Samples{}).Rank(50) != 0 {
		t.Error("empty Rank should be 0")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	// 2000 samples: p99 has 20 beyond it, so the cap applies.
	s := make(Samples, 2000)
	for i := range s {
		s[i] = time.Duration(i+1) * time.Microsecond
	}
	tail := s.TailPercentile(99, 10)
	if tail.Level != 99 || tail.Value != 1980*time.Microsecond || tail.Beyond != 20 || tail.N != 2000 {
		t.Errorf("capped tail = %+v", tail)
	}
	// 500 samples: p99 would leave only 5 beyond, so the tail drops to
	// rank 490 (p98) with exactly 10 beyond.
	tail = s[:500].TailPercentile(99, 10)
	if tail.Level != 98 || tail.Value != 490*time.Microsecond || tail.Beyond != 10 {
		t.Errorf("sample-limited tail = %+v", tail)
	}
	// Too few samples for any percentile with 10 beyond: the median,
	// with the shortfall visible in Beyond.
	tail = s[:6].TailPercentile(99, 10)
	if tail.Value != 3*time.Microsecond || tail.Beyond != 3 {
		t.Errorf("tiny tail = %+v", tail)
	}
	if (Samples{}).TailPercentile(99, 10) != (Tail{}) {
		t.Error("empty tail should be zero")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v", g)
	}
	if g := GeoMean([]float64{1, 10, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("GeoMean(1,10,100) = %v", g)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{3, 0}) != 0 {
		t.Error("GeoMean of empty or non-positive input should be 0")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python: statistics.quantiles(x, n=4).
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // two points: Python extrapolates past both ends
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if MedianFloat([]float64{4, 1, 3, 2}) != 2.5 || MedianFloat([]float64{3, 1, 2}) != 2 {
		t.Error("MedianFloat")
	}
}

func TestOutcomesCountFailuresAsMisses(t *testing.T) {
	var o Outcomes
	o.Succeed(1 * time.Millisecond)
	o.Succeed(3 * time.Millisecond)
	o.Succeed(10 * time.Millisecond)
	o.Fail()
	if o.Attempted() != 4 || o.ErrorFrac() != 0.25 {
		t.Errorf("attempted %d, error frac %v", o.Attempted(), o.ErrorFrac())
	}
	// Two of four attempts met a 5ms limit: the failure misses it even
	// though it has no latency.
	if got := o.WithinLimit(5 * time.Millisecond); got != 0.5 {
		t.Errorf("WithinLimit = %v, want 0.5", got)
	}
	var p Outcomes
	p.Fail()
	o.Merge(p)
	if o.Failed != 2 || o.Attempted() != 5 {
		t.Errorf("merged: %+v", o)
	}
	if (Outcomes{}).ErrorFrac() != 0 || (Outcomes{}).WithinLimit(time.Second) != 0 {
		t.Error("empty outcomes")
	}
}
