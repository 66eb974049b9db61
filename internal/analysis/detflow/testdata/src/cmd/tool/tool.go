// Package tool is a fixture cmd/ package: detflow reports nothing inside
// cmd/ at all, so a clock-wrapping helper here escapes the direct-use
// check — the gap detflow closes by exporting the Reaches fact anyway and
// flagging the sim-side caller.
package tool

import "time"

// Helper wraps the clock inside an allowlisted package.
func Helper() int64 { return time.Now().UnixNano() }
