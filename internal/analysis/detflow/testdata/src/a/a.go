// Package a is a fixture sim-layer package calling into clock-reaching
// helpers from other packages.
package a

import (
	"cmd/tool"
	"hostutil"
)

// Sim calls a direct carrier across a package boundary.
func Sim() int64 {
	return hostutil.Stamp() // want `call to hostutil\.Stamp reaches nondeterminism \(time\.Now\)`
}

// SimWrapped reaches the clock through a two-hop chain.
func SimWrapped() int64 {
	return hostutil.WrapStamp() // want `call to hostutil\.WrapStamp reaches nondeterminism \(Stamp → time\.Now\)`
}

// SimTool reaches the clock through a cmd/ helper, where direct uses are
// never reported.
func SimTool() int64 {
	return tool.Helper() // want `call to tool\.Helper reaches nondeterminism \(time\.Now\)`
}

// SimMethod reaches the clock through a method fact.
func SimMethod() int64 {
	var c hostutil.Clock
	return c.Read() // want `call to hostutil\.Clock\.Read reaches nondeterminism \(time\.Now\)`
}

// Reviewed is an annotated, intentional use: no diagnostic, but Reviewed
// still carries the fact (pure reachability).
func Reviewed() int64 {
	//npf:wallclock — host-side reporting, reviewed
	return hostutil.Stamp()
}

// UsesCarrier calls an intra-package carrier: not re-reported (the
// cross-package edge inside Sim already was).
func UsesCarrier() int64 { return Sim() }

// Clean only touches pure helpers.
func Clean() int64 { return hostutil.Pure(7) }
