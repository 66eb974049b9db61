package bench

import (
	"npf/internal/chaos"
	"npf/internal/kv"
	"npf/internal/mem"
	"npf/internal/sim"
)

// ---------------------------------------------------------------------------
// Distributed-KV scenarios: the whole service — placement, replication,
// failover, client retries — run under the same fault injectors the
// single-host scenarios use, with the replication convergence invariant
// (CheckConsistency) layered on top of the usual no-lost-work checks.

// chaosKVEnv is one KV scenario testbed: the service plus the group it
// runs on (see newKVDeployment). Every host records on svc.Tracer.
type chaosKVEnv struct {
	g   *sim.Group
	svc *kv.Service
}

// newChaosKVEnv builds a KV deployment on a fresh engine group.
func newChaosKVEnv(s *Scope, seed int64, cfg kv.Config) *chaosKVEnv {
	g, svc := s.newKVDeployment(seed, cfg, s.scenarioTracer())
	return &chaosKVEnv{g: guarded(g), svc: svc}
}

// targets exposes the whole deployment to the injector.
func (e *chaosKVEnv) targets() chaos.Targets {
	return chaos.Targets{
		Eng:      e.svc.Eng,
		Net:      e.svc.Net,
		Firmware: e.svc.Firmware(),
		Drivers:  e.svc.Drivers(),
		Groups:   e.svc.Groups(),
		Tracer:   e.svc.Tracer,
	}
}

// runKVWorkload drives wl to completion (quiescing the control plane a
// grace period after the last op) and fills the report's common fields.
func runKVWorkload(r *Report, e *chaosKVEnv, wl *kv.Workload) {
	svc := e.svc
	wl.OnDone = func() {
		// Leave the control plane up long enough for failed-over or
		// squeezed replicas to finish resyncing, then park it.
		svc.Eng.After(300*sim.Millisecond, func() { svc.Stop() })
	}
	wl.Start()
	end := e.g.RunUntil(120 * sim.Second)

	r.Series = seriesCSV(svc.Tracer)
	r.Digest = svc.Tracer.Digest()
	r.Sent = wl.Cfg.TargetOps
	r.Delivered = wl.Completed()
	r.NPFs = svc.NPFs()
	r.KVOps = uint64(wl.Completed())
	r.Failovers = svc.Failovers.N
	r.Resyncs = svc.Resyncs.N
	r.Shed = svc.Shed.N
	r.GroupEvicts = svc.GroupEvictions()
	r.KVp99Us = wl.Lat.Percentile(99)
	r.SimSeconds = end.Seconds()
	for _, drv := range svc.Drivers() {
		r.ResolverTimeouts += drv.ResolverTimeouts.N
		r.DegradedPins += drv.DegradedPins.N
		r.InvDuplicates += drv.InvDuplicates.N
	}

	// Universal KV invariants: no lost client ops, converged replicas.
	r.check(wl.Completed() == wl.Cfg.TargetOps,
		"lost client ops: completed %d of %d", wl.Completed(), wl.Cfg.TargetOps)
	for _, v := range svc.CheckConsistency() {
		r.check(false, "replicas diverged: %s", v)
	}
}

func runKVInvalidationStorm(seed int64, s *Scope) *Report {
	r := &Report{Scenario: "kv-under-invalidation-storm", Seed: seed}
	env := newChaosKVEnv(s, seed, kv.Config{
		ServerHosts: 3, ClientHosts: 1, Shards: 4, Replicas: 2,
		Reg: kv.RegODP, ExpectedKeys: 512,
	})
	svc := env.svc
	plan := chaos.NewPlan(chaos.InvalidationChaos{
		At: 0, Duration: 2 * sim.Second,
		Extra: 20 * sim.Microsecond, Duplicates: 2,
	})
	// Discard the servers' ODP network buffers and value arenas repeatedly
	// mid-traffic: the buffer discards fire the (delayed, duplicated)
	// invalidation flow through the NPF drivers against rings being served,
	// and the arena discards force store-side refaults on live values.
	spaces := append(svc.NetSpaces(), svc.Spaces()...)
	for i := 0; i < 4; i++ {
		at := sim.Time(3+2*i) * sim.Millisecond
		plan.Add(chaos.Callback{At: at, Fn: func(ij *chaos.Injector) {
			for _, as := range spaces {
				as.DiscardPages(0, int(as.MappedBytes()/mem.PageSize))
			}
		}})
	}
	chaos.Arm(plan, env.targets())
	wl := svc.NewWorkload(kv.WorkloadConfig{
		TargetOps: 1200, Keys: 512, Prepopulate: true, FrontCacheEntries: 32,
	})
	runKVWorkload(r, env, wl)
	r.check(r.NPFs > 0, "fault never fired: no network page faults")
	r.check(r.InvDuplicates > 0, "fault never fired: no duplicated invalidations")
	return r.finish(svc.Tracer)
}

func runKVReplicaLinkFlap(seed int64, s *Scope) *Report {
	r := &Report{Scenario: "kv-replica-link-flap", Seed: seed}
	env := newChaosKVEnv(s, seed, kv.Config{
		ServerHosts: 3, ClientHosts: 1, Shards: 4, Replicas: 2,
		Reg:            kv.RegODP,
		ExpectedKeys:   512,
		HeartbeatEvery: 2 * sim.Millisecond,
		FailoverAfter:  8 * sim.Millisecond,
		ReplTimeout:    5 * sim.Millisecond,
	})
	svc := env.svc
	victim := svc.Placement().PrimaryHost(0)
	// Sever the victim host whole (data link and management port) for
	// 100 ms — an order of magnitude past FailoverAfter — then heal it.
	chaos.Arm(chaos.NewPlan(
		chaos.Callback{At: 25 * sim.Millisecond, Fn: func(ij *chaos.Injector) { svc.SetHostDown(victim, true) }},
		chaos.Callback{At: 125 * sim.Millisecond, Fn: func(ij *chaos.Injector) { svc.SetHostDown(victim, false) }},
	), env.targets())
	wl := svc.NewWorkload(kv.WorkloadConfig{
		TargetOps: 3000, Keys: 512, Prepopulate: true,
		OpenLoop: true, ArrivalRate: 5_000, Clients: 4,
		RequestTimeout: 10 * sim.Millisecond,
	})
	runKVWorkload(r, env, wl)
	r.check(r.Failovers > 0, "fault never fired: severed primary was not failed over")
	r.check(r.Resyncs > 0, "rejoined host never resynced")
	return r.finish(svc.Tracer)
}

func runKVMemoryPressure(seed int64, s *Scope) *Report {
	r := &Report{Scenario: "kv-memory-pressure", Seed: seed}
	env := newChaosKVEnv(s, seed, kv.Config{
		ServerHosts: 3, ClientHosts: 1, Shards: 4, Replicas: 2,
		Reg: kv.RegODP, ExpectedKeys: 512,
	})
	svc := env.svc
	// Fast NVMe-class swap, as in thrash-under-pressure: the scenario
	// stresses reclaim racing the data path, not disk latency.
	for _, h := range svc.Hosts {
		h.M.Swap.ReadLatency = 200 * sim.Microsecond
	}
	chaos.Arm(chaos.NewPlan(chaos.MemoryPressure{
		At: 5 * sim.Millisecond, Period: 10 * sim.Millisecond, Waves: 5,
		LowBytes: 64 << 10, HighBytes: 0,
	}), env.targets())
	wl := svc.NewWorkload(kv.WorkloadConfig{
		TargetOps: 1500, Keys: 512, Prepopulate: true, GetRatio: 0.7,
	})
	runKVWorkload(r, env, wl)
	r.check(r.GroupEvicts > 0, "fault never fired: no cgroup evictions")
	return r.finish(svc.Tracer)
}
