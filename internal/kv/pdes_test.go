package kv

import (
	"fmt"
	"testing"

	"npf/internal/fabric"
	"npf/internal/sim"
	"npf/internal/trace"
)

// newPartitionedService builds the service on a two-partition PDES group:
// server tier on partition 0, client tier on partition 1, each with its
// own tracer.
func newPartitionedService(t *testing.T, seed int64, cfg Config) (*sim.Group, *Service) {
	t.Helper()
	fcfg := fabric.DefaultEthernet()
	if cfg.Transport == TransportRC {
		fcfg = fabric.DefaultInfiniBand()
	}
	g := sim.NewGroup(seed, 2, fcfg.Lookahead())
	for _, e := range g.Engines() {
		e.MaxEvents = 200_000_000
	}
	net := fabric.NewOnGroup(g, fcfg)
	cfg.ClientTracer = trace.New(g.Engine(1))
	return g, New(g.Engine(0), net, trace.New(g.Engine(0)), cfg)
}

// pdesFingerprint summarizes everything observable about a partitioned
// run: both engines' clocks and event counts, both tracers' digests, and
// the service/workload counters.
func pdesFingerprint(g *sim.Group, svc *Service, wl *Workload) string {
	var connFails uint64
	for _, h := range svc.Hosts {
		connFails += h.connFails.N
	}
	return fmt.Sprintf(
		"exec=%d now0=%d now1=%d dsrv=%x dcli=%x ops=%d p50=%.3f p99=%.3f fo=%d rt=%d shed=%d resync=%d redir=%d conn=%d",
		g.Executed(), g.Engine(0).Now(), g.Engine(1).Now(),
		svc.Tracer.Digest(), svc.TracerC.Digest(),
		wl.Completed(), wl.Lat.Percentile(50), wl.Lat.Percentile(99),
		svc.Failovers.N, svc.ReplTimeouts.N, svc.Shed.N, svc.Resyncs.N,
		svc.Redirects.N, connFails)
}

// TestPartitionedService checks the partitioned deployment end to end on
// both transports: the workload completes, replicas converge, and the run
// is byte-identical across engine-thread counts.
func TestPartitionedService(t *testing.T) {
	for _, tr := range []Transport{TransportTCP, TransportRC} {
		t.Run(tr.String(), func(t *testing.T) {
			var prints []string
			for _, threads := range []int{1, 2} {
				g, svc := newPartitionedService(t, 42, Config{Transport: tr})
				g.SetThreads(threads)
				wl := svc.NewWorkload(WorkloadConfig{
					TargetOps: 1000, Prepopulate: true, FrontCacheEntries: 32,
				})
				wl.OnDone = func() { svc.Stop() }
				wl.Start()
				g.Run()
				if wl.Completed() != wl.Cfg.TargetOps {
					t.Fatalf("threads=%d: completed %d of %d ops",
						threads, wl.Completed(), wl.Cfg.TargetOps)
				}
				if wl.Hits.N == 0 {
					t.Fatal("no get hits despite prepopulation")
				}
				if bad := svc.CheckConsistency(); len(bad) != 0 {
					t.Fatalf("threads=%d: consistency violations: %v", threads, bad)
				}
				prints = append(prints, pdesFingerprint(g, svc, wl))
			}
			if prints[0] != prints[1] {
				t.Fatalf("thread counts diverged:\n%s\n%s", prints[0], prints[1])
			}
		})
	}
}

// TestPartitionedFailover kills and revives a primary while a partitioned
// deployment serves open-loop traffic: the failover must happen, the
// client tier's routing snapshot must follow it (the workload completes),
// and the whole thing must replay byte-identically on 1 and 2 threads.
func TestPartitionedFailover(t *testing.T) {
	var prints []string
	for _, threads := range []int{1, 2} {
		g, svc := newPartitionedService(t, 7, Config{
			HeartbeatEvery: 2 * sim.Millisecond,
			FailoverAfter:  8 * sim.Millisecond,
			ReplTimeout:    5 * sim.Millisecond,
		})
		g.SetThreads(threads)
		victim := svc.Placement().PrimaryHost(0)
		wl := svc.NewWorkload(WorkloadConfig{
			TargetOps: 4000, Prepopulate: true,
			OpenLoop: true, ArrivalRate: 10_000, Clients: 4,
			RequestTimeout: 10 * sim.Millisecond,
		})
		wl.OnDone = func() {
			svc.ClientEngine().After(500*sim.Millisecond, func() { svc.Stop() })
		}
		wl.Start()
		// SetHostDown touches the victim's fabric state, which lives on the
		// server partition: schedule the chaos on the server engine.
		g.Engine(0).After(20*sim.Millisecond, func() {
			svc.SetHostDown(victim, true)
		})
		g.Engine(0).After(120*sim.Millisecond, func() {
			svc.SetHostDown(victim, false)
		})
		g.Run()
		if wl.Completed() != wl.Cfg.TargetOps {
			t.Fatalf("threads=%d: completed %d of %d ops",
				threads, wl.Completed(), wl.Cfg.TargetOps)
		}
		if svc.Failovers.N == 0 {
			t.Fatal("link-down primary was never failed over")
		}
		if bad := svc.CheckConsistency(); len(bad) != 0 {
			t.Fatalf("threads=%d: post-failover consistency violations: %v", threads, bad)
		}
		prints = append(prints, pdesFingerprint(g, svc, wl))
	}
	if prints[0] != prints[1] {
		t.Fatalf("thread counts diverged:\n%s\n%s", prints[0], prints[1])
	}
}
