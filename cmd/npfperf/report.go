package main

import (
	"fmt"
	"math"
)

// metric is one named value. Host-measured metrics carry the spread of
// their reps; exact ones (simulated time, counts) have sp == nil. Host
// times are scaled to the reference machine; raw is their unscaled median.
type metric struct {
	name, unit string
	value      float64
	sp         *spread
	raw        float64
}

func (m metric) String() string {
	s := fmt.Sprintf("%s %.6g %s", m.name, m.value, m.unit)
	if m.sp != nil {
		s += fmt.Sprintf(" q1=%.6g q3=%.6g reps=%d", m.sp.q1, m.sp.q3, m.sp.n)
	}
	if m.raw != 0 {
		s += fmt.Sprintf(" raw=%.6g", m.raw)
	}
	return s
}

// div is a/b, or 0 when b is 0 (a layer with no attempts, a rep that
// completed nothing — the gate reports the latter).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostMetric is the median of f over r's reps.
func hostMetric(name, unit string, r *result, f func(rep) float64) metric {
	v := make([]float64, len(r.reps))
	for i, x := range r.reps {
		v[i] = f(x)
	}
	sp := summarize(v)
	return metric{name: name, unit: unit, value: sp.median, sp: &sp}
}

// timedMetric is the median of f over r's reps, where f is given each rep's
// speed against the reference machine (see yardRef); raw is the median at
// speed 1, as measured.
func timedMetric(name, unit string, r *result, f func(x rep, speed float64) float64) metric {
	m := hostMetric(name, unit, r, func(x rep) float64 { return f(x, x.speed()) })
	m.raw = hostMetric(name, unit, r, func(x rep) float64 { return f(x, 1) }).value
	return m
}

// Host-time views of a rep at a given speed against the reference machine.
func opsPerSec(x rep, speed float64) float64 { return div(float64(x.out.ops), x.run*speed) }
func setupSec(x rep, speed float64) float64  { return (x.build + x.warm) * speed }
func runSec(x rep, speed float64) float64    { return x.run * speed }

// endToEnd is what a user of the simulator sees: host throughput, set-up
// time and memory, and the simulated latency and rate. Simulated values
// carry sim_ units to keep them apart from host time; they are the same in
// every rep of a seed (the gate checks), so the first rep's are used.
func endToEnd(r *result) []metric {
	o := r.reps[0].out
	return []metric{
		timedMetric("ops_per_s", "1/s", r, opsPerSec),
		timedMetric("setup_s", "s", r, setupSec),
		hostMetric("live_heap_mb", "MB", r, func(x rep) float64 { return x.heapMB }),
		{name: "sim_p50_us", unit: "sim_us", value: o.p50},
		{name: "sim_p99_us", unit: "sim_us", value: o.p99},
		{name: "sim_ops_per_sim_s", unit: "1/sim_s", value: div(float64(o.ops), o.simSpan.Seconds())},
	}
}

// perLayer is the per-layer view. The cpu.<layer> shares and the profiler's
// overhead need the profiled reps (prof, paired with r's) and their folded
// shares; the rest come from the plain reps.
func perLayer(r, prof *result, shares map[string]float64) []metric {
	var ms []metric
	if prof != nil {
		for _, l := range layers {
			ms = append(ms, metric{name: "cpu." + l, unit: "share", value: shares[l]})
		}
		// Each profiled rep ran right after its plain twin: compare in pairs.
		slowdown := make([]float64, len(prof.reps))
		for i, x := range prof.reps {
			slowdown[i] = div(x.run, r.reps[i].run)
		}
		ms = append(ms, metric{name: "profile_overhead", unit: "ratio", value: summarize(slowdown).median - 1})
	}
	ms = append(ms,
		hostMetric("host.yardstick", "1/s", r, func(x rep) float64 { return x.yard }),
		timedMetric("sim.host_ns_per_event", "ns", r, func(x rep, speed float64) float64 {
			return div(runSec(x, speed)*1e9, float64(x.delta["sim.events"]))
		}),
		hostMetric("alloc.bytes_per_op", "B", r, func(x rep) float64 {
			return div(float64(x.allocBytes), float64(x.out.ops))
		}),
		hostMetric("alloc.objects_per_op", "count", r, func(x rep) float64 {
			return div(float64(x.allocObjects), float64(x.out.ops))
		}),
		timedMetric("phase.build_s", "s", r, func(x rep, speed float64) float64 { return x.build * speed }),
		timedMetric("phase.warm_s", "s", r, func(x rep, speed float64) float64 { return x.warm * speed }),
		timedMetric("phase.run_s", "s", r, runSec),
		timedMetric("phase.collect_s", "s", r, func(x rep, speed float64) float64 { return x.collect * speed }),
	)
	first := r.reps[0]
	for _, n := range countNames {
		ms = append(ms, metric{name: n, unit: "count", value: float64(first.delta[n])})
	}
	for _, q := range ratios {
		v := div(float64(q.useful(first.delta)), float64(q.attempts(first.delta)))
		ms = append(ms, metric{name: q.name, unit: "ratio", value: v})
	}
	return append(ms, metric{name: "sim.samples", unit: "count", value: float64(first.out.samples)})
}

// failFrac is the measured phase's failed share of attempted operations.
func failFrac(r *result) float64 {
	o := r.reps[0].out
	return div(float64(o.failed), float64(o.attempted))
}

// checkShares reports CPU shares that do not add up to 1 over the known
// layers, which means samples landed in a package layers does not name.
func checkShares(shares map[string]float64) string {
	var sum float64
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 0.01 {
		return fmt.Sprintf("cpu shares over the known layers sum to %.4f, not 1 (%v)", sum, shares)
	}
	return ""
}
