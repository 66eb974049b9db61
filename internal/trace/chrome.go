package trace

import (
	"encoding/json"
	"io"
)

// Chrome trace_event export. The output loads in Perfetto
// (https://ui.perfetto.dev) and chrome://tracing. Virtual time is the
// timebase: the "ts" microseconds in the file are sim.Time microseconds
// since simulation start, so a 220 µs NPF renders as a 220 µs slice.
//
// Layout: each root span becomes one "thread" (track) whose tid is the
// root's SpanID, and every span in that tree renders as a complete ("X")
// event on the track. NPF tracks are derived from the fault records
// (FaultSpans) and follow the recorded spans, their IDs continuing after
// the recorded ones; the stages of one NPF nest visually inside it, which
// is exactly the Figure 3a decomposition. With multiple tracers (one
// engine per experiment), each tracer becomes a separate "process".

// chromeEvent is one trace_event entry. Field order and json.Marshal's
// sorted map keys keep the output deterministic.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports this tracer's spans, recorded and derived from
// its fault records, as Chrome trace_event JSON.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return ExportChromeTrace(w, []*Tracer{t})
}

// ExportChromeTrace merges several tracers (typically one per experiment
// engine) into one trace file; tracer i becomes process i+1. Nil tracers
// are skipped. The output is byte-identical across runs given a seed.
func ExportChromeTrace(w io.Writer, tracers []*Tracer) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	pid := 0
	for _, t := range tracers {
		if t == nil {
			continue
		}
		pid++
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]string{"name": "npf-sim engine " + itoa(int64(pid))},
		})
		clamp := t.eng.Now()
		spans := append(t.spans[:len(t.spans):len(t.spans)], FaultSpans(t.FaultRecords())...)
		for i := len(t.spans); i < len(spans); i++ {
			spans[i].ID += SpanID(len(t.spans))
			if spans[i].Parent != 0 {
				spans[i].Parent += SpanID(len(t.spans))
			}
		}
		// Resolve each span's root so the whole tree shares one track.
		roots := make([]SpanID, len(spans)+1)
		for i := range spans {
			s := &spans[i]
			if s.Parent == 0 || int(s.Parent) > len(spans) {
				roots[s.ID] = s.ID
			} else {
				roots[s.ID] = roots[s.Parent]
			}
		}
		named := make(map[SpanID]bool)
		for i := range spans {
			s := &spans[i]
			root := roots[s.ID]
			if !named[root] {
				named[root] = true
				r := &spans[root-1]
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: int64(root),
					Args: map[string]string{"name": r.Cat + ":" + r.Name + " #" + itoa(int64(root))},
				})
			}
			end := s.End
			if end < s.Start {
				end = clamp // open span: clamp to export time
				if end < s.Start {
					end = s.Start
				}
			}
			dur := float64(end-s.Start) / 1e3
			ev := chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: &dur,
				Pid: pid, Tid: int64(root),
			}
			if len(s.Args) > 0 {
				ev.Args = make(map[string]string, len(s.Args))
				for _, a := range s.Args {
					ev.Args[a.Key] = a.Val
				}
			}
			out.TraceEvents = append(out.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
