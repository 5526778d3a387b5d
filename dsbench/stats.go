package main

import (
	"math"
	"slices"
	"time"
)

// Samples is a set of per-operation latencies.
type Samples []time.Duration

// sorted returns an ascending copy.
func (s Samples) sorted() Samples {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// Rank returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it.
// Returns 0 for an empty set.
func (s Samples) Rank(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	return c[nearestRank(p, len(c))-1]
}

// nearestRank returns the 1-based rank ceil(p/100 * n), clamped to
// [1, n].
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// Median is the nearest-rank 50th percentile.
func (s Samples) Median() time.Duration { return s.Rank(50) }

// Tail is a percentile reported with the evidence behind it.
type Tail struct {
	// Level is the percentile, Value the latency at it.
	Level float64
	Value time.Duration
	// N is the sample count and Beyond the number of samples ranked
	// above the percentile's sample.
	N, Beyond int
}

// TailPercentile returns the highest nearest-rank percentile, at most
// maxLevel, that has at least minBeyond samples ranked above it. The
// level is the rank's own share of the samples, so it is exact for
// the sample count. With fewer than minBeyond+1 samples it falls back
// to the median and reports how few samples lie beyond.
func (s Samples) TailPercentile(maxLevel float64, minBeyond int) Tail {
	n := len(s)
	if n == 0 {
		return Tail{}
	}
	c := s.sorted()
	r := min(n-minBeyond, nearestRank(maxLevel, n))
	if r < 1 {
		r = nearestRank(50, n)
	}
	return Tail{
		Level:  100 * float64(r) / float64(n),
		Value:  c[r-1],
		N:      n,
		Beyond: n - r,
	}
}

// Mean is the arithmetic mean (0 for an empty set).
func (s Samples) Mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// Ms converts a duration to float milliseconds.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// GeoMean returns the geometric mean of positive values (0 if any
// value is not positive or the set is empty).
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vals)))
}

// MedianFloat returns the median of vals, averaging the two middle
// values of an even-sized set (0 for an empty set).
func MedianFloat(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	c := slices.Clone(vals)
	slices.Sort(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Quartiles returns the first, second and third quartile of vals by
// the "exclusive" method of Python's statistics.quantiles(vals, n=4)
// — the rule the benchmark's spread check uses. It needs at least two
// values; with fewer it returns the single value (or zeros).
func Quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return vals[0], vals[0], vals[0]
	}
	c := slices.Clone(vals)
	slices.Sort(c)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile range as a share of the median.
func Spread(vals []float64) float64 {
	q1, q2, q3 := Quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// Seconds converts durations to float seconds.
func (s Samples) Seconds() []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = d.Seconds()
	}
	return out
}

// Outcomes accounts for every operation a workload attempted: the
// latencies of those that succeeded and the number that failed (an
// error, a refusal or a wrong answer).
type Outcomes struct {
	OK     Samples
	Failed int
}

// Succeed records a successful operation's latency.
func (o *Outcomes) Succeed(d time.Duration) { o.OK = append(o.OK, d) }

// Fail records a failed operation.
func (o *Outcomes) Fail() { o.Failed++ }

// Merge folds another set of outcomes into o.
func (o *Outcomes) Merge(p Outcomes) {
	o.OK = append(o.OK, p.OK...)
	o.Failed += p.Failed
}

// Attempted is the number of operations tried.
func (o Outcomes) Attempted() int { return len(o.OK) + o.Failed }

// ErrorFrac is failed operations divided by operations attempted.
func (o Outcomes) ErrorFrac() float64 {
	if o.Attempted() == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted())
}

// WithinLimit is the share of attempted operations that succeeded
// within limit; a failed operation counts as missing any limit.
func (o Outcomes) WithinLimit(limit time.Duration) float64 {
	if o.Attempted() == 0 {
		return 0
	}
	met := 0
	for _, d := range o.OK {
		if d <= limit {
			met++
		}
	}
	return float64(met) / float64(o.Attempted())
}
