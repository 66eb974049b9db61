package trace

import "npf/internal/sim"

// maxSamples bounds the rows a Sampler stores so a forgotten sampler on a
// very long run cannot exhaust memory. At the default 10ms interval this
// covers ~3 virtual hours.
const maxSamples = 1 << 20

// Sampler snapshots every registered counter and probe gauge into
// per-interval columns, driven by the simulation clock: it schedules itself
// on the tracer's engine, so two runs of the same seed sample at identical
// virtual times and produce byte-identical series.
//
// Lifecycle: obtain one via Tracer.StartSampler. The sampler takes one
// sample immediately, then re-arms every Interval. When a tick finds the
// engine otherwise idle (no pending events beyond its own), it parks
// instead of re-arming, so Engine.Run still terminates; the parked tick is
// the final row, taken at the first interval boundary after the last
// workload event.
//
// Sampling is read-only with respect to simulation state: probes observe,
// ticks draw no randomness, and tick events interleave between (never
// reorder) workload events, so a scenario's rendered results are identical
// with sampling on or off — only the engine's executed-event count changes.
//
// A nil *Sampler (as returned by a disabled tracer) is inert: every method
// is nil-safe and returns zero values.
type Sampler struct {
	tr       *Tracer
	interval sim.Time
	tickFn   func() // pre-bound so re-arming allocates nothing per tick

	// maxSamples caps stored rows: the package constant, lowered only by
	// this package's tests.
	maxSamples int

	times     []sim.Time
	cols      map[string][]float64
	gauges    map[string]float64 // each probe name's sum at the latest tick
	truncated bool
	parked    bool
}

// Probe registers fn to be evaluated at every sampler tick and published as
// gauge name. Multiple probes may share one name: their values are summed,
// which keeps aggregation across hosts/stacks commutative and therefore
// independent of registration order. fn must be read-only with respect to
// simulation state and must not consume randomness. A disabled tracer
// discards the registration.
func (t *Tracer) Probe(name string, fn func() float64) {
	if t == nil {
		return
	}
	if t.probes == nil {
		t.probes = make(map[string][]func() float64)
	}
	t.probes[name] = append(t.probes[name], fn)
}

// StartSampler starts (or returns the already-running) sampler for this
// tracer, ticking every interval of virtual time. The first sample is taken
// synchronously. interval must be positive. A disabled tracer returns nil,
// which is safe to use.
func (t *Tracer) StartSampler(interval sim.Time) *Sampler {
	if t == nil {
		return nil
	}
	if t.sampler != nil {
		return t.sampler
	}
	if interval <= 0 {
		panic("trace: StartSampler interval must be positive")
	}
	s := &Sampler{
		tr:         t,
		interval:   interval,
		maxSamples: maxSamples,
		cols:       make(map[string][]float64),
		gauges:     make(map[string]float64),
	}
	s.tickFn = s.tick
	t.sampler = s
	s.sample()
	t.eng.After(interval, s.tickFn)
	return s
}

// Sampler returns the running sampler, or nil if StartSampler has not been
// called (or the tracer is disabled).
func (t *Tracer) Sampler() *Sampler {
	if t == nil {
		return nil
	}
	return t.sampler
}

// tick is the event body the sampler schedules on the engine.
func (s *Sampler) tick() {
	s.sample()
	// The engine pops an event before running it, so Pending()==0 here
	// means this tick was the only thing keeping the run alive: park so
	// Run() can terminate. A truncated sampler parks too — it can record
	// nothing more, so re-arming would only perturb Executed().
	if s.truncated || s.tr.eng.Pending() == 0 {
		s.parked = true
		return
	}
	s.tr.eng.After(s.interval, s.tickFn)
}

// sample evaluates probes and appends one row: every counter, then every
// probe sum. Iteration over the probe and metric maps is sorted, so row
// construction is deterministic.
func (s *Sampler) sample() {
	t := s.tr
	if len(s.times) >= s.maxSamples {
		s.truncated = true
		return
	}
	for _, name := range sortedKeys(t.probes) {
		sum := 0.0
		for _, fn := range t.probes[name] {
			sum += fn()
		}
		s.gauges[name] = sum
	}
	row := len(s.times)
	s.times = append(s.times, t.eng.Now())
	for _, name := range sortedKeys(t.counters) {
		s.appendCell(name, row, float64(t.counters[name].Value()))
	}
	for _, name := range sortedKeys(s.gauges) {
		s.appendCell(name, row, s.gauges[name])
	}
}

// appendCell writes one value into column name at row, zero-backfilling
// columns for metrics registered after sampling began so every column has
// one cell per row.
func (s *Sampler) appendCell(name string, row int, v float64) {
	col := s.cols[name]
	for len(col) < row {
		col = append(col, 0)
	}
	if len(col) == row {
		col = append(col, v)
	} else {
		// A name registered as both counter and probe: last write wins
		// (probes iterate second). Metric naming conventions keep the two
		// namespaces disjoint in practice.
		col[row] = v
	}
	s.cols[name] = col
}

// Series materializes the sampled rows into an exportable Series. Columns
// are sorted by name; the returned value shares no state with the sampler.
func (s *Sampler) Series() *Series {
	if s == nil || len(s.times) == 0 {
		return nil
	}
	out := &Series{
		Interval: s.interval,
		Times:    append([]sim.Time(nil), s.times...),
		Names:    sortedKeys(s.cols),
		Cols:     make(map[string][]float64, len(s.cols)),
	}
	for _, name := range out.Names {
		col := append([]float64(nil), s.cols[name]...)
		for len(col) < len(out.Times) {
			col = append(col, 0)
		}
		out.Cols[name] = col
	}
	return out
}
