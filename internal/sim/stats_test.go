package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if got := h.Percentile(50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := h.Percentile(99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := h.Max(); got != 100 {
		t.Errorf("max = %v, want 100", got)
	}
	if got := h.Min(); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("mean = %v, want 50.5", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
	if h.Percentile(0) != 0 || h.Percentile(100) != 0 {
		t.Error("empty histogram boundary percentiles should be 0")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Add(42)
	for _, p := range []float64{0, 0.1, 50, 99.9, 100} {
		if got := h.Percentile(p); got != 42 {
			t.Errorf("p%v = %v, want 42", p, got)
		}
	}
	if h.Min() != 42 || h.Max() != 42 || h.Mean() != 42 {
		t.Error("single-sample min/max/mean should all be the sample")
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Add(float64(i))
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want min (1)", got)
	}
	if got := h.Percentile(100); got != 10 {
		t.Errorf("p100 = %v, want max (10)", got)
	}
	// Out-of-range p clamps rather than panicking or extrapolating.
	if got := h.Percentile(-5); got != 1 {
		t.Errorf("p-5 = %v, want min (1)", got)
	}
	if got := h.Percentile(250); got != 10 {
		t.Errorf("p250 = %v, want max (10)", got)
	}
	if got := h.Percentile(math.NaN()); got != 1 {
		t.Errorf("pNaN = %v, want min (1)", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 5; i++ {
		a.Add(float64(i))
	}
	for i := 6; i <= 10; i++ {
		b.Add(float64(i))
	}
	a.Merge(&b)
	if a.Count() != 10 {
		t.Fatalf("merged count = %d, want 10", a.Count())
	}
	if a.Mean() != 5.5 {
		t.Errorf("merged mean = %v, want 5.5", a.Mean())
	}
	if a.Min() != 1 || a.Max() != 10 {
		t.Errorf("merged min/max = %v/%v, want 1/10", a.Min(), a.Max())
	}
	if a.Percentile(50) != 5 {
		t.Errorf("merged p50 = %v, want 5", a.Percentile(50))
	}
	// Source must be untouched, and degenerate merges must be no-ops.
	if b.Count() != 5 || b.Min() != 6 {
		t.Error("Merge modified its argument")
	}
	var empty Histogram
	a.Merge(&empty)
	a.Merge(nil)
	if a.Count() != 10 {
		t.Errorf("no-op merges changed count to %d", a.Count())
	}
	// Merging into an empty histogram copies.
	var c Histogram
	c.Merge(&b)
	if c.Count() != 5 || c.Mean() != 8 {
		t.Errorf("merge into empty: n=%d mean=%v, want 5/8", c.Count(), c.Mean())
	}
}

// Property: percentiles are monotone in p and bounded by [Min, Max].
func TestHistogramMonotoneProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var h Histogram
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Add(v)
		}
		if h.Count() == 0 {
			return true
		}
		prev := h.Min()
		for p := 0.0; p <= 100; p += 5 {
			cur := h.Percentile(p)
			if cur < prev || cur > h.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramLazySortInterleaved pins the lazy-sort cache: interleaving
// Add/Merge with Percentile/Min/Max (each of which sorts and memoises) must
// return exactly what a sort-once oracle — every sample added up front, one
// query pass at the end — returns. A stale `sorted` flag after Add or Merge
// would surface here as a percentile computed over a half-sorted slice.
// Runs under the CI -race pass.
func TestHistogramLazySortInterleaved(t *testing.T) {
	r := NewRand(99)
	var h Histogram
	var oracle []float64
	feed := func(n int) {
		for i := 0; i < n; i++ {
			v := r.Float64() * 1e4
			h.Add(v)
			oracle = append(oracle, v)
		}
	}
	check := func(step string) {
		t.Helper()
		// A fresh copy of the oracle's samples, sorted exactly once.
		var once Histogram
		for _, v := range oracle {
			once.Add(v)
		}
		once.sort()
		for _, p := range []float64{0, 25, 50, 90, 99, 100} {
			if got, want := h.Percentile(p), once.Percentile(p); got != want {
				t.Fatalf("%s: p%.0f = %v, want %v", step, p, got, want)
			}
		}
		if h.Min() != once.Min() || h.Max() != once.Max() {
			t.Fatalf("%s: min/max %v/%v, want %v/%v", step, h.Min(), h.Max(), once.Min(), once.Max())
		}
	}

	feed(100)
	check("after first batch")
	// Query, then add more: the cached sort must be invalidated.
	feed(57)
	check("after interleaved adds")
	// Merge after a query must also invalidate.
	var side Histogram
	for i := 0; i < 31; i++ {
		v := r.Float64() * 1e4
		side.Add(v)
		oracle = append(oracle, v)
	}
	_ = side.Percentile(50) // side is pre-sorted when merged
	h.Merge(&side)
	check("after merge")
	// Repeated queries with no writes stay cached and stay right.
	check("repeat query")
	feed(1)
	check("single trailing add")
}

// histFootprint is the heap a histogram holds beyond its own struct, in
// bytes.
func histFootprint(h *Histogram) int {
	n := 8 * cap(h.samples)
	if h.st != nil {
		n += int(unsafe.Sizeof(histState{})) + int(unsafe.Sizeof(histRun{}))*cap(h.st.runs)
	}
	return n
}

// stateSize is the fixed run bookkeeping a histogram of five or more
// samples allocates once.
const stateSize = int(unsafe.Sizeof(histState{}))

// TestHistogramSize: a Histogram is as small as a raw slice and a sum plus
// one pointer, so the structs that embed one do not grow.
func TestHistogramSize(t *testing.T) {
	if got := unsafe.Sizeof(Histogram{}); got > 40 {
		t.Fatalf("Histogram is %d B, want ≤ 40", got)
	}
}

// TestHistogramRepeatsStayCompact gates the run storage: a million equal
// samples retain O(1) memory, and distinct samples, or samples repeated in
// runs shorter than minRun, retain no more than the raw []float64 that the
// same appends would grow, one 8-byte entry each.
func TestHistogramRepeatsStayCompact(t *testing.T) {
	var rep Histogram
	for i := 0; i < 1_000_000; i++ {
		rep.Add(48.04)
	}
	if got := histFootprint(&rep); got > 256 {
		t.Errorf("1e6 equal samples retain %d B, want O(1) (≤ 256 B)", got)
	}
	if rep.Count() != 1_000_000 || rep.Percentile(99) != 48.04 {
		t.Errorf("repeat histogram: n=%d p99=%v", rep.Count(), rep.Percentile(99))
	}

	const n = 100_000
	var dist Histogram
	var raw []float64
	for i := 0; i < n; i++ {
		v := float64(i) * 0.5
		dist.Add(v)
		raw = append(raw, v)
	}
	if len(dist.samples) != n || cap(dist.st.runs) != 0 {
		t.Errorf("distinct samples: %d entries and %d run slots, want %d and 0",
			len(dist.samples), cap(dist.st.runs), n)
	}
	if got, want := histFootprint(&dist), 8*cap(raw)+stateSize; got > want {
		t.Errorf("1e5 distinct samples retain %d B, want ≤ %d B (a raw []float64 and the state)", got, want)
	}
	_ = dist.Percentile(50)
	if got := histFootprint(&dist); got > 8*cap(raw)+stateSize {
		t.Errorf("a query grew the footprint to %d B", got)
	}

	var short Histogram
	for i := 0; i < n; i++ {
		short.Add(float64(i / (minRun - 1)))
	}
	if got, want := histFootprint(&short), 8*cap(raw)+stateSize; got > want {
		t.Errorf("1e5 samples in runs of %d retain %d B, want ≤ %d B (a raw []float64 and the state)", minRun-1, got, want)
	}
}

// TestHistogramQueryNoAlloc: once warm, adding samples and re-sorting for
// a query allocates nothing, with or without runs. kv's per-tenant
// percentile probes query after every sample period.
func TestHistogramQueryNoAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		val  func(i int) float64
	}{
		{"distinct", func(i int) float64 { return float64(i%977) * 1.25 }},
		{"runs", func(i int) float64 { return float64(i / 3 % 41) }},
	} {
		var h Histogram
		i := 0
		period := func() {
			for k := 0; k < 32; k++ {
				h.Add(tc.val(i))
				i++
			}
			_ = h.Percentile(99)
		}
		// Warm: let every slice reach the capacity the measured periods need.
		for k := 0; k < 100; k++ {
			period()
		}
		h.samples = slices.Grow(h.samples, 64*32)
		h.st.runs = slices.Grow(h.st.runs, 64*32)
		if allocs := testing.AllocsPerRun(50, period); allocs != 0 {
			t.Errorf("%s: a sample period allocates %.1f, want 0", tc.name, allocs)
		}
	}
}

// TestHistogramGrowNoAlloc: after Grow(n), n Adds allocate nothing, runs
// long enough to fold included. (n-1)*8 B is a size class, so a
// reservation one sample short would fill before the last Add and allocate.
func TestHistogramGrowNoAlloc(t *testing.T) {
	const n = 1025
	var hs [2]Histogram // AllocsPerRun warms up on the first
	for i := range hs {
		hs[i].Grow(n)
	}
	k := 0
	allocs := testing.AllocsPerRun(1, func() {
		h := &hs[k]
		k++
		for i := 0; i < n; i++ {
			h.Add(float64(i / (2 * minRun) % 13))
		}
	})
	if allocs != 0 {
		t.Errorf("%d Adds after Grow(%d) allocate %.0f objects, want 0", n, n, allocs)
	}
	if hs[1].Count() != n {
		t.Errorf("Count = %d, want %d", hs[1].Count(), n)
	}
}

// TestHistogramGrowMatchesUngrown: a reservation changes only where the
// samples live. A grown histogram and an un-grown twin fed the same
// samples report the same count, sum and percentiles, before and after a
// Merge, whether the samples fit the reservation or overflow it and fold.
func TestHistogramGrowMatchesUngrown(t *testing.T) {
	const reserve = 600
	for _, tc := range []struct {
		name string
		val  func(i int) float64
	}{
		{"distinct", func(i int) float64 { return float64(i%977) * 1.25 }},
		{"runs", func(i int) float64 { return float64(i / (minRun + 2) % 17) }},
		{"one value", func(int) float64 { return 48.04 }},
	} {
		for _, n := range []int{reserve / 2, reserve, 5 * reserve} {
			var grown, plain, side Histogram
			grown.Grow(reserve)
			for i := 0; i < n; i++ {
				grown.Add(tc.val(i))
				plain.Add(tc.val(i))
				side.Add(tc.val(3 * i))
			}
			name := fmt.Sprintf("%s/%d", tc.name, n)
			sameHist(t, name, &grown, &plain)
			grown.Merge(&side)
			plain.Merge(&side)
			sameHist(t, name+"/merged", &grown, &plain)
			var a, b Histogram
			a.Merge(&grown)
			b.Merge(&plain)
			sameHist(t, name+"/merged into empty", &a, &b)
		}
	}
}

// sameHist fails unless a and b report the same count, sum and
// percentile at every tenth of a percent.
func sameHist(t *testing.T, name string, a, b *Histogram) {
	t.Helper()
	if a.Count() != b.Count() || math.Float64bits(a.sum) != math.Float64bits(b.sum) {
		t.Fatalf("%s: n=%d sum=%v, want n=%d sum=%v", name, a.Count(), a.sum, b.Count(), b.sum)
	}
	for q := 0; q <= 1000; q++ {
		p := float64(q) / 10
		if got, want := a.Percentile(p), b.Percentile(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: p%v = %v, want %v", name, p, got, want)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(5), NewRand(5)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed sources diverged")
		}
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.Zipf(100, 1.2); v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if mean < 9.5 || mean > 10.5 {
		t.Fatalf("Exp mean = %v, want ≈10", mean)
	}
}

func TestRandSplitIndependence(t *testing.T) {
	r := NewRand(3)
	s := r.Split()
	if r.Uint64() == s.Uint64() {
		t.Fatal("split source mirrors parent")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(Second)
	ts.Observe(100*Millisecond, 1)
	ts.Observe(900*Millisecond, 1)
	ts.Observe(2500*Millisecond, 4)
	times, values := ts.Points()
	if len(times) != 3 {
		t.Fatalf("got %d buckets, want 3 (gap bucket included)", len(times))
	}
	if values[0] != 2 || values[1] != 0 || values[2] != 4 {
		t.Fatalf("values = %v", values)
	}
	_, rates := ts.RatePoints()
	if rates[2] != 4 {
		t.Fatalf("rate = %v, want 4/s", rates[2])
	}
}

func TestCounterRate(t *testing.T) {
	var c Counter
	c.Add(500)
	if got := c.Rate(0, 2*Second); got != 250 {
		t.Fatalf("rate = %v, want 250", got)
	}
	if got := c.Rate(5, 5); got != 0 {
		t.Fatalf("zero-span rate = %v, want 0", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(4)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
