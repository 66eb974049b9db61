// Package a exercises the tracesafe analyzer: outside package trace,
// tracer fields may only be touched under an Enabled() guard.
package a

import "npf/internal/trace"

func bad(tr *trace.Tracer) {
	tr.MaxFaultEvents = 4      // want `direct field access on \*trace\.Tracer panics when tracing is disabled`
	if tr.MaxFaultEvents > 0 { // want `direct field access on \*trace\.Tracer panics when tracing is disabled`
		return
	}
}

func badElse(tr *trace.Tracer) {
	if tr.Enabled() {
		return
	} else if true {
		tr.MaxFaultEvents = 4 // want `direct field access on \*trace\.Tracer panics when tracing is disabled`
	}
}

func guarded(tr *trace.Tracer) {
	if tr.Enabled() {
		tr.MaxFaultEvents = 4
	}
	if tr != nil && tr.Enabled() {
		if tr.MaxFaultEvents == 0 {
			tr.MaxFaultEvents = 8
		}
	}
}

func viaMethod(tr *trace.Tracer) {
	tr.SetMaxFaultEvents(4) // nil-safe wrapper: always fine
}

func annotated(tr *trace.Tracer) {
	tr.MaxFaultEvents = 4 //npf:tracesafe — caller guarantees an enabled tracer
}

func badCounter(tr *trace.Tracer) {
	c := tr.Counter("x")
	c.N = 3      // want `direct field access on \*trace\.Counter panics when tracing is disabled`
	if c.N > 1 { // want `direct field access on \*trace\.Counter panics when tracing is disabled`
		return
	}
}

func goodCounter(tr *trace.Tracer) {
	c := tr.Counter("x")
	_ = c.Value() // nil-safe method: always fine
	if tr.Enabled() {
		c.N = 3 // guarded: the tracer (and thus the handle) is non-nil
	}
}

func badSampler(tr *trace.Tracer) {
	s := tr.StartSampler(10)
	s.MaxSamples = 4      // want `direct field access on \*trace\.Sampler panics when tracing is disabled`
	if s.MaxSamples > 0 { // want `direct field access on \*trace\.Sampler panics when tracing is disabled`
		return
	}
}

func goodSampler(tr *trace.Tracer) {
	s := tr.StartSampler(10)
	s.SetMaxSamples(4) // nil-safe wrapper: always fine
	if tr.Enabled() {
		s.MaxSamples = 8
	}
}

func annotatedSampler(s *trace.Sampler) {
	s.MaxSamples = 4 //npf:tracesafe — caller guarantees an enabled tracer
}
