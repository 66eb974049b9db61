package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"npf/internal/sim"
)

// Counter is the read-only view of one metric name: the sum of the
// sim.Counter stats fields the layers published under it. The layers own
// and increment those fields; the tracer only reads them, so every fact
// has exactly one count. A nil *Counter (as returned by a disabled tracer)
// reads 0.
type Counter struct {
	srcs []*sim.Counter
}

// Value returns the sum of the published sources (0 for a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var n uint64
	for _, s := range c.srcs {
		n += s.N
	}
	return n
}

// Counter registers name (if new), publishes srcs under it, and returns
// its read-only handle. Sources published under one name sum, which keeps
// aggregation across hosts commutative. Nil sources are skipped. A
// disabled tracer returns a nil handle and keeps nothing.
func (t *Tracer) Counter(name string, srcs ...*sim.Counter) *Counter {
	if t == nil {
		return nil
	}
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{}
		t.counters[name] = c
	}
	c.srcs = publish(c.srcs, srcs)
	return c
}

// Latency registers name (if new) and publishes srcs under it: the
// snapshot reports the merge of every published histogram (µs samples).
// Nil sources are skipped; a disabled tracer keeps nothing.
func (t *Tracer) Latency(name string, srcs ...*sim.Histogram) {
	if t == nil {
		return
	}
	t.lats[name] = publish(t.lats[name], srcs)
}

// publish appends the non-nil srcs not already in list. Publishing a field
// twice (a layer's SetTracer called again) must not count it twice.
func publish[T any](list, srcs []*T) []*T {
	for _, s := range srcs {
		if s != nil && !slices.Contains(list, s) {
			list = append(list, s)
		}
	}
	return list
}

// MetricsSnapshot renders every registered metric as one line each, sorted
// by kind then name — byte-reproducible given a seed. Names registered
// with nothing counted yet still appear (value 0), so two runs of the
// same scenario list identical metric sets. Gauges are the probe sums of
// the sampler's most recent tick (none without a sampler).
func (t *Tracer) MetricsSnapshot() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for _, name := range sortedKeys(t.counters) {
		fmt.Fprintf(&b, "counter %-32s %d\n", name, t.counters[name].Value())
	}
	if s := t.sampler; s != nil {
		for _, name := range sortedKeys(s.gauges) {
			fmt.Fprintf(&b, "gauge   %-32s %.3f\n", name, s.gauges[name])
		}
	}
	for _, name := range sortedKeys(t.lats) {
		var h sim.Histogram
		for _, src := range t.lats[name] {
			h.Merge(src)
		}
		fmt.Fprintf(&b, "latency %-32s n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
			name, h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max())
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
