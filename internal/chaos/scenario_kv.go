package chaos

import (
	"npf/internal/fabric"
	"npf/internal/kv"
	"npf/internal/mem"
	"npf/internal/sim"
	"npf/internal/trace"
)

// ---------------------------------------------------------------------------
// Distributed-KV scenarios: the whole service — placement, replication,
// failover, client retries — run under the same fault injectors the
// single-host scenarios use, with the replication convergence invariant
// (CheckConsistency) layered on top of the usual no-lost-work checks.

// kvEnv is one KV scenario testbed: the service plus the engines and
// tracers it runs on. The server tier lives on partition 0 of the
// testbed's group; with Options.Engines >= 1 the client tier lives on
// partition 1.
type kvEnv struct {
	eng *sim.Engine // server-tier engine; chaos plans arm here
	g   *sim.Group  // the testbed's group (newGroup)
	// trs holds one tracer per partition: trs[0] is the server tier's,
	// the last the client tier's (the same one on one partition).
	trs []*trace.Tracer
	svc *kv.Service
}

// newKVEnv builds a KV deployment on a fresh engine group.
func newKVEnv(o Options, seed int64, cfg kv.Config) *kvEnv {
	e := &kvEnv{}
	fcfg := fabric.DefaultEthernet()
	if cfg.Transport == kv.TransportRC {
		fcfg = fabric.DefaultInfiniBand()
	}
	e.g = o.newGroup(seed, fcfg.Lookahead())
	e.eng = e.g.Engine(0)
	for _, eng := range e.g.Engines() {
		e.trs = append(e.trs, o.tracer(eng))
	}
	cfg.ClientTracer = e.trs[len(e.trs)-1]
	e.svc = kv.New(e.eng, fabric.NewOnGroup(e.g, fcfg), e.trs[0], cfg)
	return e
}

// targets exposes the deployment to the injector, which keeps the adapters
// and drivers on its own partition: the server tier's.
func (e *kvEnv) targets() Targets {
	return Targets{
		Eng:      e.eng,
		Net:      e.svc.Net,
		Firmware: e.svc.Firmware(),
		Drivers:  e.svc.Drivers(),
		Groups:   e.svc.Groups(),
		Tracer:   e.trs[0],
	}
}

// runKVWorkload drives wl to completion (quiescing the control plane a
// grace period after the last op) and fills the report's common fields.
func runKVWorkload(r *Report, e *kvEnv, wl *kv.Workload) {
	svc := e.svc
	wl.OnDone = func() {
		// Leave the control plane up long enough for failed-over or
		// squeezed replicas to finish resyncing, then park it. OnDone fires
		// from a client-side event, so the delayed Stop runs on the client
		// engine (it forwards the server tier's flag).
		svc.ClientEngine().After(300*sim.Millisecond, func() { svc.Stop() })
	}
	wl.Start()
	end := e.g.RunUntil(120 * sim.Second)

	r.Series = seriesCSV(e.trs[0])
	r.Digest = trace.DigestAll(e.trs)
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

func runKVInvalidationStorm(seed int64, o Options) *Report {
	r := &Report{Scenario: "kv-under-invalidation-storm", Seed: seed}
	env := newKVEnv(o, seed, kv.Config{
		ServerHosts: 3, ClientHosts: 1, Shards: 4, Replicas: 2,
		Reg: kv.RegODP, ExpectedKeys: 512,
	})
	svc := env.svc
	plan := NewPlan(InvalidationChaos{
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
		plan.Add(Callback{At: at, Fn: func(ij *Injector) {
			for _, as := range spaces {
				as.DiscardPages(0, int(as.MappedBytes()/mem.PageSize))
			}
		}})
	}
	Arm(plan, env.targets())
	wl := svc.NewWorkload(kv.WorkloadConfig{
		TargetOps: 1200, Keys: 512, Prepopulate: true, FrontCacheEntries: 32,
	})
	runKVWorkload(r, env, wl)
	r.check(r.NPFs > 0, "fault never fired: no network page faults")
	r.check(r.InvDuplicates > 0, "fault never fired: no duplicated invalidations")
	return r.finish(env.trs[0])
}

func runKVReplicaLinkFlap(seed int64, o Options) *Report {
	r := &Report{Scenario: "kv-replica-link-flap", Seed: seed}
	env := newKVEnv(o, seed, kv.Config{
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
	Arm(NewPlan(
		Callback{At: 25 * sim.Millisecond, Fn: func(ij *Injector) { svc.SetHostDown(victim, true) }},
		Callback{At: 125 * sim.Millisecond, Fn: func(ij *Injector) { svc.SetHostDown(victim, false) }},
	), env.targets())
	wl := svc.NewWorkload(kv.WorkloadConfig{
		TargetOps: 3000, Keys: 512, Prepopulate: true,
		OpenLoop: true, ArrivalRate: 5_000, Clients: 4,
		RequestTimeout: 10 * sim.Millisecond,
	})
	runKVWorkload(r, env, wl)
	r.check(r.Failovers > 0, "fault never fired: severed primary was not failed over")
	r.check(r.Resyncs > 0, "rejoined host never resynced")
	return r.finish(env.trs[0])
}

func runKVMemoryPressure(seed int64, o Options) *Report {
	r := &Report{Scenario: "kv-memory-pressure", Seed: seed}
	env := newKVEnv(o, seed, kv.Config{
		ServerHosts: 3, ClientHosts: 1, Shards: 4, Replicas: 2,
		Reg: kv.RegODP, ExpectedKeys: 512,
	})
	svc := env.svc
	// Fast NVMe-class swap, as in thrash-under-pressure: the scenario
	// stresses reclaim racing the data path, not disk latency.
	for _, h := range svc.Hosts {
		h.M.Swap.ReadLatency = 200 * sim.Microsecond
	}
	Arm(NewPlan(MemoryPressure{
		At: 5 * sim.Millisecond, Period: 10 * sim.Millisecond, Waves: 5,
		LowBytes: 64 << 10, HighBytes: 0,
	}), env.targets())
	wl := svc.NewWorkload(kv.WorkloadConfig{
		TargetOps: 1500, Keys: 512, Prepopulate: true, GetRatio: 0.7,
	})
	runKVWorkload(r, env, wl)
	r.check(r.GroupEvicts > 0, "fault never fired: no cgroup evictions")
	return r.finish(env.trs[0])
}
