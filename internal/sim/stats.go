package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Histogram accumulates latency samples and reports exact nearest-rank
// percentiles. It stores a run of at least minRun bit-identical
// consecutive samples once: samples holds one entry per run, and the
// sparse runs list names only the entries that stand for more than one
// sample. Add appends; the new entries fold into runs when the slice fills
// or a query sorts it. So samples that all differ, or repeat only in short
// runs, cost 8 B each, as a raw []float64 would, plus one fixed state
// record; samples that all repeat cost O(1).
//
// Queries order samples by a total order that refines sort.Float64s: NaNs
// first, by bit pattern, then -0 before +0. Every query therefore depends
// only on the multiset of samples, not on how they were stored.
//
// Copies share storage, so copy a Histogram only before its first Grow or
// Add; use Merge to combine or snapshot one.
type Histogram struct {
	samples []float64
	sum     float64
	st      *histState // nil until the first fold, merge or query
}

// histState is the run bookkeeping, kept apart so that a Histogram stays
// as small as a raw slice and a sum: histograms sit inside per-host and
// per-tenant structs, and the fleet workload runs measurably slower when
// they grow.
type histState struct {
	runs    []histRun // ascending at, each below folded, at most one per entry
	extra   int       // samples beyond one per entry: Σ (n-1) over runs
	folded  int       // samples[folded:] are not yet checked for runs
	sortedN int       // Count at the last sort; Count only grows
}

// histRun says that samples[at], whose value is v, stands for n ≥ 2
// samples. start, valid while the histogram is sorted, is the rank of the
// first of them.
type histRun struct {
	v     float64
	at, n int
	start int
}

func (h *Histogram) state() *histState {
	if h.st == nil {
		h.st = new(histState)
	}
	return h.st
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	if len(h.samples) == cap(h.samples) {
		h.fold()
	}
	h.samples = append(h.samples, v)
	h.sum += v
}

// Grow reserves room for n more samples, so that the next n Adds allocate
// nothing. A caller that knows how many samples it will record reserves
// them once instead of letting Add double the slice; repeats then fold
// into runs only once the reserved room fills.
func (h *Histogram) Grow(n int) {
	h.samples = slices.Grow(h.samples, n)
}

// minRun is the shortest run fold stores as one entry. A histRun record
// costs as much as four samples, so a run of minRun costs no more than its
// raw samples, and shorter runs stay raw.
const minRun = 5

// fold stores each run of at least minRun bit-identical consecutive samples
// once, in place, folding samples[folded:] into the entries before it. Add
// calls it only when samples is full, so long runs never grow the slice and
// each sample is checked about once. Comparing bits keeps -0 and +0 apart
// and lets a NaN repeat. Fewer than minRun samples hold no run, so a small
// histogram never allocates its state.
func (h *Histogram) fold() {
	if h.st == nil && len(h.samples) < minRun {
		return
	}
	st := h.state()
	s, w := h.samples, st.folded
	for i := st.folded; i < len(s); {
		v, bits := s[i], math.Float64bits(s[i])
		g := 1
		for i+g < len(s) && math.Float64bits(s[i+g]) == bits {
			g++
		}
		i += g
		last := len(st.runs) - 1
		if w > 0 && last >= 0 && st.runs[last].at == w-1 && math.Float64bits(s[w-1]) == bits {
			st.runs[last].n += g
			st.extra += g
			continue
		}
		// Raw copies of v just before w join the group; a run's own entry
		// (always the last run's) ends them.
		c := 0
		for c < minRun && w-c > 0 && math.Float64bits(s[w-c-1]) == bits && (last < 0 || st.runs[last].at != w-c-1) {
			c++
		}
		if c+g >= minRun {
			w -= c
			s[w] = v
			st.runs = append(st.runs, histRun{v: v, at: w, n: c + g})
			st.extra += c + g - 1
			w++
			continue
		}
		for ; g > 0; g-- {
			s[w] = v
			w++
		}
	}
	h.samples, st.folded = s[:w], w
}

// AddTime records a virtual-time span as microseconds.
func (h *Histogram) AddTime(t Time) { h.Add(t.Micros()) }

// Merge folds every sample of other into h. other is unmodified; merging
// a nil or empty histogram is a no-op. h may be other.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.Count() == 0 {
		return
	}
	st, off := h.state(), len(h.samples)
	h.samples = append(h.samples, other.samples...)
	if other.st != nil {
		for _, r := range other.st.runs {
			r.at += off
			st.runs = append(st.runs, r)
		}
		st.extra += other.st.extra
	}
	st.folded = len(h.samples)
	h.sum += other.sum
}

// Count reports the number of samples.
func (h *Histogram) Count() int {
	if h.st == nil {
		return len(h.samples)
	}
	return len(h.samples) + h.st.extra
}

// Mean reports the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.sum / float64(n)
}

// sort orders the entries in place and moves each run to an entry of its
// value. Neither step allocates.
func (h *Histogram) sort() {
	st := h.state()
	if st.sortedN == h.Count() {
		return
	}
	st.sortedN = h.Count()
	h.fold()
	sort.Float64s(h.samples)
	canonicalize(h.samples)
	if len(st.runs) == 0 {
		return
	}
	// Entries with identical bits are adjacent now, and each value has at
	// least as many entries as runs, so runs sorted by value take that
	// value's entries in turn.
	slices.SortFunc(st.runs, func(a, b histRun) int { return compareTotal(a.v, b.v) })
	extra := 0 // samples beyond one per entry, in the runs placed so far
	for i := 0; i < len(st.runs); {
		v := st.runs[i].v
		at, _ := slices.BinarySearchFunc(h.samples, v, compareTotal)
		for ; i < len(st.runs) && math.Float64bits(st.runs[i].v) == math.Float64bits(v); i++ {
			r := &st.runs[i]
			r.at, r.start = at, at+extra
			extra += r.n - 1
			at++
		}
	}
}

// canonicalize puts a slice sorted by sort.Float64s into compareTotal
// order. Only the NaNs and the zeros can be out of that order, and both
// are found without scanning the rest.
func canonicalize(s []float64) {
	nan := 0
	for nan < len(s) && math.IsNaN(s[nan]) {
		nan++
	}
	if nan > 1 {
		slices.SortFunc(s[:nan], compareTotal)
	}
	lo := sort.SearchFloat64s(s[nan:], 0) + nan
	hi, neg := lo, lo
	for ; hi < len(s) && s[hi] == 0; hi++ {
		if math.Signbit(s[hi]) {
			neg++
		}
	}
	if neg == lo || neg == hi {
		return
	}
	negZero := math.Copysign(0, -1)
	for i := lo; i < hi; i++ {
		if i < neg {
			s[i] = negZero
		} else {
			s[i] = 0
		}
	}
}

// compareTotal orders float64s as sort.Float64s does, and breaks its ties
// between different bit patterns: NaNs by bits, then -0 before +0.
func compareTotal(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return cmp.Compare(math.Float64bits(a), math.Float64bits(b))
	case an:
		return -1
	case bn:
		return 1
	case math.Signbit(a) == math.Signbit(b):
		return 0
	case math.Signbit(a):
		return -1
	}
	return 1
}

// nth returns the sample of rank i (0-based) in sorted order. h must be
// sorted.
func (h *Histogram) nth(i int) float64 {
	st := h.st
	if len(st.runs) == 0 {
		return h.samples[i]
	}
	// The first run that ends after i.
	k, _ := slices.BinarySearchFunc(st.runs, i, func(r histRun, i int) int {
		if r.start+r.n <= i {
			return -1
		}
		return 1
	})
	if k == len(st.runs) {
		return h.samples[i-st.extra]
	}
	r := &st.runs[k]
	if i >= r.start {
		return h.samples[r.at]
	}
	return h.samples[i-(r.start-r.at)]
}

// Percentile reports the p-th percentile using nearest-rank, or 0 with no
// samples. p is clamped to [0, 100]: p <= 0 returns the minimum sample and
// p >= 100 the maximum, so callers can ask for p0/p100 (or a slightly
// out-of-range p from float arithmetic) and get the sane boundary answer.
func (h *Histogram) Percentile(p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	h.sort()
	if p <= 0 || math.IsNaN(p) {
		return h.nth(0)
	}
	if p >= 100 {
		return h.nth(n - 1)
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return h.nth(rank)
}

// Max reports the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	h.sort()
	return h.nth(n - 1)
}

// Min reports the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	h.sort()
	return h.nth(0)
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max())
}

// Counter is a monotonically increasing event counter with an associated
// rate helper.
type Counter struct {
	N uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.N++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.N += n }

// Rate reports events per virtual second over the span [start, end].
func (c *Counter) Rate(start, end Time) float64 {
	if end <= start {
		return 0
	}
	return float64(c.N) / (end - start).Seconds()
}

// TimeSeries records (time, value) points bucketed at a fixed interval;
// used for throughput-versus-time figures.
type TimeSeries struct {
	Interval Time
	buckets  map[int64]float64
}

// NewTimeSeries returns a series with the given bucketing interval.
func NewTimeSeries(interval Time) *TimeSeries {
	return &TimeSeries{Interval: interval, buckets: make(map[int64]float64)}
}

// Observe adds v to the bucket containing time t.
func (ts *TimeSeries) Observe(t Time, v float64) {
	ts.buckets[int64(t)/int64(ts.Interval)] += v
}

// Points returns the series as ordered (bucket-start-seconds, value) pairs.
// Buckets with no observations between the first and last bucket are
// reported as zero, so gaps (e.g. the cold-ring outage) are visible.
func (ts *TimeSeries) Points() (times, values []float64) {
	if len(ts.buckets) == 0 {
		return nil, nil
	}
	keys := make([]int64, 0, len(ts.buckets))
	for k := range ts.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for k := keys[0]; k <= keys[len(keys)-1]; k++ {
		times = append(times, (Time(k) * ts.Interval).Seconds())
		values = append(values, ts.buckets[k])
	}
	return times, values
}

// RatePoints returns Points with each value divided by the interval in
// seconds, i.e. a per-second rate series.
func (ts *TimeSeries) RatePoints() (times, rates []float64) {
	times, values := ts.Points()
	ivalSec := ts.Interval.Seconds()
	rates = make([]float64, len(values))
	for i, v := range values {
		rates[i] = v / ivalSec
	}
	return times, rates
}
