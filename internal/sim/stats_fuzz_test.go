package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// refHist is the reference model FuzzHistogram checks Histogram against:
// every sample in one raw slice, sorted on demand. sum accumulates in the
// order Histogram's does, so Mean must match bit for bit.
type refHist struct {
	vals []float64
	sum  float64
}

func (r *refHist) add(v float64) {
	r.vals = append(r.vals, v)
	r.sum += v
}

func (r *refHist) merge(o *refHist) {
	if len(o.vals) == 0 {
		return
	}
	r.vals = append(r.vals, o.vals...)
	r.sum += o.sum
}

// refOrder is the documented query order, written out independently of
// compareTotal: NaNs first by bit pattern, then by value, -0 before +0.
func refOrder(a, b float64) int {
	an, bn := a != a, b != b
	if an || bn {
		switch {
		case an && bn:
			return cmp.Compare(math.Float64bits(a), math.Float64bits(b))
		case an:
			return -1
		}
		return 1
	}
	if a != b {
		if a < b {
			return -1
		}
		return 1
	}
	// Equal values differ in bits only as -0 and +0.
	return cmp.Compare(math.Float64bits(b), math.Float64bits(a))
}

func (r *refHist) sorted() []float64 {
	s := slices.Clone(r.vals)
	slices.SortFunc(s, refOrder)
	return s
}

// refPercentile is the nearest-rank rule over a raw sorted slice.
func refPercentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 || math.IsNaN(p) {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}

// histAlphabet mixes the values that stress run storage and ordering:
// repeats of one latency, both zeros, NaN, infinities and extremes.
var histAlphabet = []float64{
	48.04, 61.7, 0, math.Copysign(0, -1), math.NaN(), 1, -1,
	math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64, -48.04,
}

// checkHist compares every query of h with the reference, bit for bit.
func checkHist(t *testing.T, step int, h *Histogram, r *refHist) {
	t.Helper()
	s := r.sorted()
	if !sort.Float64sAreSorted(s) {
		t.Fatalf("step %d: reference order disagrees with sort.Float64s: %v", step, s)
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: %s = %v (%#x), want %v (%#x); samples %v",
				step, what, got, math.Float64bits(got), want, math.Float64bits(want), r.vals)
		}
	}
	if h.Count() != len(s) {
		t.Fatalf("step %d: Count = %d, want %d", step, h.Count(), len(s))
	}
	wantMean := 0.0
	if len(s) > 0 {
		wantMean = r.sum / float64(len(s))
	}
	// A sum of NaNs with different payloads carries whichever payload the
	// compiled addition keeps, which Go leaves unspecified; any NaN matches.
	if got := h.Mean(); !(math.IsNaN(got) && math.IsNaN(wantMean)) {
		same("Mean", got, wantMean)
	}
	for _, p := range []float64{0, 50, 99, 99.9, 100} {
		same(fmt.Sprintf("Percentile(%v)", p), h.Percentile(p), refPercentile(s, p))
	}
	same("Max", h.Max(), refPercentile(s, 100))
}

// FuzzHistogram runs arbitrary interleavings of Add, AddTime, Merge (self
// merges and merges of already-sorted histograms included) and queries on
// three histograms, and checks every query against refHist. Each op is two
// bytes: the low three bits of the first pick the op, the rest pick the
// histograms or a repeat count, and the second picks a value.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x02, 0xf8, 0x04, 0x00})
	f.Add([]byte{0x00, 0x02, 0x00, 0x03, 0x00, 0x02, 0x04, 0x00, 0x06, 0x07, 0x04, 0x00})
	f.Add([]byte{0x07, 0x01, 0x07, 0x02, 0x07, 0x01, 0x00, 0x04, 0x04, 0x00})
	f.Add([]byte{0x02, 0x20, 0x05, 0x18, 0x03, 0x00, 0x03, 0x00, 0x04, 0x00, 0x0c, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxSamples = 1 << 14
		var hs [3]Histogram
		var rs [3]refHist
		for step := 0; step+1 < len(data); step += 2 {
			op, arg, b := data[step]&7, int(data[step]>>3), data[step+1]
			dst, src := arg%3, arg/3%3
			h, r := &hs[dst], &rs[dst]
			v := histAlphabet[int(b)%len(histAlphabet)]
			switch op {
			case 0:
				h.Add(v)
				r.add(v)
			case 1:
				ts := Time(b) * 37
				h.AddTime(ts)
				r.add(ts.Micros())
			case 2: // a long repeat of one value
				for i := 0; i <= arg*17 && len(r.vals) < maxSamples; i++ {
					h.Add(v)
					r.add(v)
				}
			case 3: // src may be dst: a self-merge
				if len(r.vals)+len(rs[src].vals) <= maxSamples {
					h.Merge(&hs[src])
					r.merge(&rs[src])
				}
			case 4:
				checkHist(t, step, h, r)
			case 5: // merge a histogram that a query has just sorted
				_ = hs[src].Percentile(float64(b) / 2.55)
				if len(r.vals)+len(rs[src].vals) <= maxSamples {
					h.Merge(&hs[src])
					r.merge(&rs[src])
				}
			case 6: // mostly distinct values
				v = float64(b)*1.5 - 100
				h.Add(v)
				r.add(v)
			case 7: // NaNs with different payloads and signs
				v = math.Float64frombits(0x7ff8000000000000 | uint64(b&0x7f) | uint64(b&0x80)<<56)
				h.Add(v)
				r.add(v)
			}
		}
		hs[0].Merge(nil)
		hs[0].Merge(&Histogram{})
		for i := range hs {
			checkHist(t, len(data), &hs[i], &rs[i])
		}
	})
}
