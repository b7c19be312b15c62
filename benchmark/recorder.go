package main

import (
	"fmt"
	"math"
	"slices"
)

// minTail is the number of samples that must lie beyond a percentile for
// it to be printed: a p99 of 500 samples rests on five observations.
const minTail = 10

// samples is an exact latency record: raw nanoseconds, one slice per
// connection while the run is live, merged and sorted once at exit.
// internal/metrics.Histogram is deliberately not used: its log-spaced
// buckets quantise a 7 µs median into 6.5 / 6.7 / 7.4 µs steps, which is
// the whole run-to-run spread this benchmark has to resolve.
type samples []int64

// merge concatenates per-connection records and sorts the result.
func merge(parts ...samples) samples {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make(samples, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// percentile returns the p-th percentile (0 < p < 100) of a sorted record
// by nearest rank. It refuses (ok = false) when fewer than minTail samples
// lie beyond the requested rank.
func (s samples) percentile(p float64) (ns int64, ok bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, false
	}
	return s[rank-1], true
}

// micros reports percentile p in microseconds, or 0 when the record is too
// small to support it (the caller prints the sample count beside it).
func (s samples) micros(p float64) float64 { return s.nanos(p) / 1e3 }

// nanos reports percentile p in nanoseconds, 0 when refused.
func (s samples) nanos(p float64) float64 {
	ns, _ := s.percentile(p)
	return float64(ns)
}

// describe formats percentile p with the sample count it rests on.
func (s samples) describe(p float64) string {
	ns, ok := s.percentile(p)
	if !ok {
		return fmt.Sprintf("n/a (n=%d, fewer than %d samples beyond p%g)", len(s), minTail, p)
	}
	return fmt.Sprintf("%.2f µs (n=%d)", float64(ns)/1e3, len(s))
}

// median of a small set of per-round values (set-up times, heap ratios).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
