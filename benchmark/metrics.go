package main

import (
	"fmt"
	"io"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered name → metric table; notes carries the sample
// count printed beside a percentile.
type metricSet struct {
	names []string
	m     map[string]metric
	notes map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{m: make(map[string]metric), notes: make(map[string]string)}
}

func (s *metricSet) set(name string, value float64, unit string) {
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: value, Unit: unit}
}

// setPercentile reports percentile p of a sorted record in µs together
// with the number of samples it rests on.
func (s *metricSet) setPercentile(name string, rec samples, p float64) {
	s.set(name, rec.micros(p), "us")
	s.notes[name] = rec.describe(p)
}

func (s *metricSet) print(w io.Writer) {
	for _, name := range s.names {
		m := s.m[name]
		note := ""
		if n, ok := s.notes[name]; ok {
			note = "   # " + n
		}
		fmt.Fprintf(w, "%-36s %16.6g %-8s%s\n", name, m.Value, m.Unit, note)
	}
}

// openClasses splits the open-loop reads of one round by where their due
// time fell: before the first migration (rest) or while one was in flight.
func openClasses(r *roundResult) (rest, mig samples) {
	if len(r.migrations) == 0 {
		return nil, nil
	}
	first := r.migrations[0].start.Nanoseconds()
	for _, op := range r.open {
		if op.write {
			continue
		}
		if op.due < first {
			rest = append(rest, op.lat)
			continue
		}
		for _, m := range r.migrations {
			if op.due >= m.start.Nanoseconds() && op.due <= m.done.Nanoseconds() {
				mig = append(mig, op.lat)
				break
			}
		}
	}
	return rest, mig
}

// endToEnd reduces the rounds of an untraced run to the metrics a user of
// the store would see.
func endToEnd(rounds []*roundResult) *metricSet {
	var (
		setups, heaps  []float64
		serveS, ops    float64
		reads, puts    []samples
		pulled, migS   float64
		due, missed    float64
		recS, recBytes float64
	)
	for _, r := range rounds {
		setups = append(setups, r.setupS)
		heaps = append(heaps, r.heapRatio)
		serveS += r.serveS
		ops += float64(len(r.reads) + len(r.puts))
		reads, puts = append(reads, r.reads), append(puts, r.puts)
		for _, m := range r.migrations {
			pulled += float64(m.res.BytesPulled)
			migS += m.res.Duration().Seconds()
		}
		for _, op := range r.open {
			due++
			if !op.ok || op.lat > sloLimit.Nanoseconds() {
				missed++
			}
		}
		recS += r.recoveryS
		recBytes += r.recoveredBytes
	}
	s := newMetricSet()
	s.set("setup_s", median(setups), "s")
	s.set("heap_bytes_per_user_byte", median(heaps), "ratio")
	s.set("kops", ops/serveS/1e3, "kops/s")
	allReads, allPuts := merge(reads...), merge(puts...)
	s.setPercentile("read_p50_us", allReads, 50)
	s.setPercentile("read_p99_us", allReads, 99)
	s.setPercentile("put_p50_us", allPuts, 50)
	s.set("migration_mbps", pulled/1e6/migS, "MB/s")
	s.set("slo_miss_frac", missed/due, "ratio")
	s.set("recovery_s_per_gb", recS/(recBytes/1e9), "s/GB")
	return s
}

// sortedKinds lists failure kinds in a stable order for printing.
func sortedKinds(m map[string]int64) []string {
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
