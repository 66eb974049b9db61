// Package a exercises detflow's direct-use check: wall-clock, global rand,
// and environment reads are banned in sim-layer code.
package a

import (
	"math/rand"
	"os"
	"time"
)

func bad() {
	_ = time.Now()              // want `time\.Now is nondeterministic`
	_ = time.Since(time.Time{}) // want `time\.Since is nondeterministic`
	time.Sleep(1)               // want `time\.Sleep is nondeterministic`
	_ = rand.Intn(4)            // want `math/rand\.Intn is nondeterministic`
	_ = os.Getenv("NPF_DEBUG")  // want `os\.Getenv is nondeterministic`
	f := time.Now               // want `time\.Now is nondeterministic`
	_ = f
}

func allowed() {
	// Explicitly seeded sources are the sanctioned form of randomness.
	r := rand.New(rand.NewSource(7))
	_ = r.Intn(4)
	// Reviewed wall-clock reads can be annotated.
	_ = time.Now() //npf:wallclock
	//npf:wallclock — host-side progress logging, never reaches sim state
	_ = time.Now()
}
