// Package hostutil is a fixture helper package: host-side utilities that
// read the wall clock. detflow flags the direct reads here, but not the
// intra-package chains that bottom out at them; it exports Reaches facts
// for every carrier, which the importing fixture package consumes.
package hostutil

import "time"

// Stamp reads the clock directly: a carrier by seed.
func Stamp() int64 { return time.Now().UnixNano() } // want `time\.Now is nondeterministic`

// WrapStamp is a carrier through a local, intra-package chain.
func WrapStamp() int64 { return Stamp() }

// Clock carries nondeterminism through a method, exercising the
// "Recv.Name" fact key round-trip.
type Clock struct{ last int64 }

// Read samples the wall clock.
func (c *Clock) Read() int64 {
	c.last = time.Now().UnixNano() // want `time\.Now is nondeterministic`
	return c.last
}

// Pure is clean: calling it from sim layers is fine.
func Pure(x int64) int64 { return x * 2 }
