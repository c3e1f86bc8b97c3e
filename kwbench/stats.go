package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie above a percentile before the
// benchmark reports it: p99 needs at least 1000 samples.
const minTail = 10

// samples holds one metric's raw observations.
type samples struct {
	xs     []float64
	sorted bool
}

func (s *samples) add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *samples) n() int { return len(s.xs) }

func (s *samples) sum() float64 {
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t
}

// mean is the sum over the count, 0 without samples.
func (s *samples) mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum() / float64(len(s.xs))
}

// quantile returns the nearest-rank q-quantile (the smallest sample with at
// least a q share of the samples at or below it), the number of samples
// strictly beyond its rank, and whether that number reaches minTail.
func (s *samples) quantile(q float64) (v float64, beyond int, ok bool) {
	n := len(s.xs)
	if n == 0 {
		return 0, 0, false
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond = n - rank
	return s.xs[rank-1], beyond, beyond >= minTail
}

// highestSupported returns the highest of the candidate quantiles that has at
// least minTail samples beyond it.
func (s *samples) highestSupported(candidates ...float64) (q, v float64, ok bool) {
	sort.Sort(sort.Reverse(sort.Float64Slice(candidates)))
	for _, c := range candidates {
		if v, _, ok := s.quantile(c); ok {
			return c, v, true
		}
	}
	return 0, 0, false
}

// ratio is a share that keeps its base: num useful outcomes out of den
// attempts.
type ratio struct{ num, den float64 }

// value is num/den, 0 when nothing was attempted.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

// metric is one reported figure: its value and unit, plus the base the
// report prints beside it (a sample count or a ratio's numerator and
// denominator).
type metric struct {
	name  string
	value float64
	unit  string
	base  string
}

// metrics keeps reported figures in the order they were set.
type metrics struct{ list []metric }

func (m *metrics) set(name string, value float64, unit, base string) {
	for i := range m.list {
		if m.list[i].name == name {
			m.list[i] = metric{name, value, unit, base}
			return
		}
	}
	m.list = append(m.list, metric{name, value, unit, base})
}

func (m *metrics) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.name == name {
			return x, true
		}
	}
	return metric{}, false
}

// setRatio reports a ratio with its base counts.
func (m *metrics) setRatio(name string, r ratio) {
	m.set(name, r.value(), "ratio", fmt.Sprintf("%g/%g", r.num, r.den))
}

// setMean reports the mean of the samples with their count.
func (m *metrics) setMean(name string, s *samples, unit string) {
	m.set(name, s.mean(), unit, fmt.Sprintf("n=%d", s.n()))
}

// setQuantile reports the q-quantile of the samples with the sample count and
// the count beyond it. It fails when fewer than minTail samples lie beyond
// the quantile, which is how a too-short run fails instead of printing an
// unsupported p99.
func (m *metrics) setQuantile(name string, s *samples, q float64, unit string) error {
	v, beyond, ok := s.quantile(q)
	if !ok {
		return fmt.Errorf("%s: %d samples leave %d beyond the %g quantile, need %d",
			name, s.n(), beyond, q, minTail)
	}
	m.set(name, v, unit, fmt.Sprintf("n=%d, %d beyond", s.n(), beyond))
	return nil
}
