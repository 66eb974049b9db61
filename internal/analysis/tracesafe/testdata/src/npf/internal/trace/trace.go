// Package trace stands in for the telemetry package: a nil *Tracer is the
// disabled state, methods are nil-safe, raw field access is not. The same
// contract covers the handle types (Counter, Sampler) a tracer returns.
package trace

type Tracer struct {
	MaxFaultEvents int
}

func (t *Tracer) Enabled() bool { return t != nil }

func (t *Tracer) SetMaxFaultEvents(n int) {
	if t == nil {
		return
	}
	t.MaxFaultEvents = n
}

func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return &Counter{}
}

func (t *Tracer) StartSampler(interval int64) *Sampler {
	if t == nil {
		return nil
	}
	return &Sampler{}
}

type Counter struct {
	N uint64
}

func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.N
}

type Sampler struct {
	MaxSamples int
}

func (s *Sampler) SetMaxSamples(n int) {
	if s == nil {
		return
	}
	s.MaxSamples = n
}
