package topo_test

import (
	"testing"

	"npf/internal/bench"
	"npf/internal/fabric"
	"npf/internal/sim"
	"npf/internal/topo"
)

// TestSwarmTimerKeys pins the (time, seq) key of every swarm timer that
// acts in the quick fleet, on both transports: each client's staggered
// start and each retry timeout that resends or gives up, with its host and
// client. The digests were taken from the fleet that queued one engine
// event per timer, where a timer's seq came from the AfterArg call that
// armed it. A seq reserved anywhere else flips only same-instant ties,
// which the fleet fingerprints can miss; this digest cannot. Records fold
// per host, in host order, so the digest does not depend on how the
// group interleaves partitions.
func TestSwarmTimerKeys(t *testing.T) {
	for _, tc := range []struct {
		tr      topo.Transport
		records int
		digest  uint64
	}{
		{topo.TransportEth, 4350, 0xb56e55c295ea8038},
		{topo.TransportUD, 9634, 0x9b83e33d479cdc3e},
	} {
		s, _ := quickFleet(t, tc.tr)
		type record struct {
			now    sim.Time
			seq    uint64
			client int32
		}
		logs := make([][]record, bench.ScaleoutConfig(tc.tr, true).SwarmHosts)
		topo.OnTimer(s, func(host int32, now sim.Time, seq uint64, client int32) {
			logs[host] = append(logs[host], record{now, seq, client})
		})
		s.Run()
		h, n := uint64(14695981039346656037), 0
		fold := func(v uint64) {
			for i := 0; i < 8; i++ {
				h ^= (v >> (8 * i)) & 0xff
				h *= 1099511628211
			}
		}
		for host, log := range logs {
			for _, r := range log {
				fold(uint64(host))
				fold(uint64(r.now))
				fold(r.seq)
				fold(uint64(r.client))
			}
			n += len(log)
		}
		if n != tc.records || h != tc.digest {
			t.Errorf("[%v] %d timer records, digest %016x; want %d, %016x", tc.tr, n, h, tc.records, tc.digest)
		}
	}
}

// quickFleet builds the quick fleet of npfbench's scaleout experiment on
// tr: its config, seed and eight partitions, driven on one thread.
func quickFleet(t *testing.T, tr topo.Transport) (*topo.Sweep, *sim.Group) {
	t.Helper()
	fcfg := fabric.DefaultEthernet()
	if tr == topo.TransportUD {
		fcfg = fabric.DefaultInfiniBand()
	}
	g := sim.NewGroup(42, 8, fcfg.Lookahead())
	g.SetThreads(1)
	s, err := topo.New(g.Engine(0), fabric.NewOnGroup(g, fcfg), bench.ScaleoutConfig(tr, true))
	if err != nil {
		t.Fatalf("[%v] New: %v", tr, err)
	}
	return s, g
}

// TestFleetPendingPerHost: once the quick fleet is started, its engines
// hold one event per swarm host, the first client's start, plus each
// server's reclaim waves; the other starts wait in the hosts' timer
// heaps.
func TestFleetPendingPerHost(t *testing.T) {
	for _, tr := range []topo.Transport{topo.TransportEth, topo.TransportUD} {
		s, g := quickFleet(t, tr)
		cfg := bench.ScaleoutConfig(tr, true)
		s.Start()
		n := 0
		for _, e := range g.Engines() {
			n += e.Pending()
		}
		if limit := cfg.SwarmHosts + cfg.Servers*cfg.ReclaimWaves; n > limit {
			t.Errorf("[%v] %d events pending after Start; want at most %d (%d swarm hosts, %d servers × %d waves) for %d clients",
				tr, n, limit, cfg.SwarmHosts, cfg.Servers, cfg.ReclaimWaves, s.Clients())
		}
	}
}
