package topo

import (
	"slices"
	"testing"

	"npf/internal/sim"
)

// TestSwarmTimerHeap drives one host's timer heap through random pushes,
// removals and pops against a model sorted by (due, seq). After every
// operation the top must be the model's minimum and armed, each client's
// timer field must name its entry (noTimer when it has none), and the
// engine must hold one event per timer ever armed: a timer is armed at
// most once, so no reserved seq is scheduled twice.
func TestSwarmTimerHeap(t *testing.T) {
	const clients = 64
	eng := sim.NewEngine(1)
	sh := &SwarmHost{
		sweep:   &Sweep{timerFn: func(any) {}},
		eng:     eng,
		clients: make([]swarmClient, clients),
		timers:  make([]swarmTimer, 0, clients),
	}
	for i := range sh.clients {
		sh.clients[i].timer = noTimer
	}
	rng := sim.NewRand(3)
	var model []swarmTimer // sorted by (due, seq)
	armed := map[uint64]bool{}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(model) < clients:
			ci := int32(rng.Intn(clients))
			for sh.clients[ci].timer != noTimer {
				ci = (ci + 1) % clients
			}
			// Few distinct dues, so ties fall to the seq.
			tm := swarmTimer{due: sim.Time(1 + rng.Intn(50)), seq: eng.ReserveSeqs(1), client: ci}
			sh.pushTimer(tm.due, tm.seq, ci)
			i, _ := slices.BinarySearchFunc(model, tm, func(a, b swarmTimer) int {
				if timerLess(&a, &b) {
					return -1
				}
				return 1
			})
			model = slices.Insert(model, i, tm)
		case op == 1 && len(model) > 0:
			i := rng.Intn(len(model))
			sh.removeTimer(sh.clients[model[i].client].timer)
			model = slices.Delete(model, i, i+1)
		case op == 2 && len(model) > 0:
			if sh.timers[0].client != model[0].client {
				t.Fatalf("step %d: top is client %d, model's minimum client %d", step, sh.timers[0].client, model[0].client)
			}
			sh.removeTimer(0)
			model = model[1:]
		}
		if len(sh.timers) != len(model) {
			t.Fatalf("step %d: heap holds %d timers, model %d", step, len(sh.timers), len(model))
		}
		if len(model) > 0 {
			if top := sh.timers[0]; top.seq != model[0].seq || !top.armed {
				t.Fatalf("step %d: top %+v, model's minimum %+v, or not armed", step, top, model[0])
			}
		}
		in := map[int32]bool{}
		for _, m := range model {
			in[m.client] = true
			i := sh.clients[m.client].timer
			if i < 0 || int(i) >= len(sh.timers) || sh.timers[i].client != m.client || sh.timers[i].seq != m.seq {
				t.Fatalf("step %d: client %d's timer index %d does not name its entry", step, m.client, i)
			}
		}
		for ci := range sh.clients {
			if !in[int32(ci)] && sh.clients[ci].timer != noTimer {
				t.Fatalf("step %d: client %d has no timer, index %d", step, ci, sh.clients[ci].timer)
			}
		}
		for _, tm := range sh.timers {
			if tm.armed {
				armed[tm.seq] = true
			}
		}
		if eng.Pending() != len(armed) {
			t.Fatalf("step %d: %d events queued for %d armed timers", step, eng.Pending(), len(armed))
		}
	}
}
