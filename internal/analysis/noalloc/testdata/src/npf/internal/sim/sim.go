// Package sim is a stand-in for the real engine package: the noalloc
// Required registry lists Engine.At/After/Cancel/schedule for import path
// npf/internal/sim, so the unannotated methods here are findings — the
// negative test proving a deleted hot-path annotation fails the gate.
package sim

// Engine is a stand-in scheduler.
type Engine struct{ n int }

// At keeps its annotation and a clean body.
//
//npf:noalloc
func (e *Engine) At(t int64) { e.n++ }

// schedule keeps its annotation and a clean body.
//
//npf:noalloc
func (e *Engine) schedule(t int64) { e.n++ }

// After lost its annotation.
func (e *Engine) After(d int64) { e.n++ } // want `Engine\.After is a runtime-gated hot path and must carry //npf:noalloc`

// Cancel lost its annotation too.
func (e *Engine) Cancel(id int64) { e.n-- } // want `Engine\.Cancel is a runtime-gated hot path and must carry //npf:noalloc`
