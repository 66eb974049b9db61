package topo

import "npf/internal/sim"

// OnTimer makes s call f for every swarm timer that acts, with the host's
// clock and the engine's EventSeq at that moment: a client's staggered
// start, and a retry timeout that resends or gives the op up. A
// superseded timer event, which acts on nothing, is not reported. f runs
// on the host's partition; drive s on one thread.
func OnTimer(s *Sweep, f func(host int32, now sim.Time, seq uint64, client int32)) {
	s.onTimer = func(sh *SwarmHost, ci int32) { f(sh.idx, sh.eng.Now(), sh.eng.EventSeq(), ci) }
}
