package main

import (
	"fmt"

	"npf/internal/apps"
	"npf/internal/bench"
	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/kv"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/topo"
	"npf/internal/trace"
)

// A workload builds one deployment per rep. Each is pinned to a canonical
// seed of the repository's experiments; -seed n adds n-1 to it, so -seed 1
// reproduces the experiment the workload is modelled on.
type workload struct {
	name  string
	why   string
	build func(seed int64, short bool) deployment
}

// A deployment is one built workload. The harness calls warm, run and
// collect once each, in that order, and reads counters between them.
type deployment interface {
	// warm runs the warm-up phase, which counts towards setup_s.
	warm()
	// run runs the measured phase.
	run()
	// counters reads the exact per-layer counters accumulated so far.
	counters() counts
	// collect drains the deployment, checks its outputs and returns the
	// measured phase's outcome; measured holds the counters' growth over it.
	collect(measured counts) outcome
}

// outcome is the measured phase's result, read from public counters.
type outcome struct {
	attempted uint64
	failed    uint64
	ops       uint64   // completed operations, the ops_per_s numerator
	p50, p99  float64  // simulated operation latency, µs
	samples   uint64   // latency samples behind p50 and p99
	simSpan   sim.Time // simulated length of the measured phase
	problems  []string // correctness violations
}

// workloads are the benchmark's workloads, with why each was chosen (the
// same text as in BENCHMARK.json).
var workloads = []workload{
	{"ib-npf-storm",
		"the paper's fault pipeline back to back: every RC receive takes an rNPF, RNR NACK, driver resolve, IOMMU map and resend (rc, iommu, mem, fabric)",
		buildIBStorm},
	{"eth-memcached",
		"Fig 4a memcached over TCP once the cold ring has warmed: tcp, nic, apps and fabric in steady state without faults; the bypass case for fault-path changes",
		buildEthMemcached},
	{"kv-reclaim",
		"replicated KV under reclaim waves with the tracer on: kv, tcp, nic and mem's eviction and major-fault path; its ~1.5k cold-ring NPFs fall in warm-up",
		buildKVReclaim},
	{"fleet",
		"1,008 hosts and 101k clients on a fixed 8-partition group: the only partitioned, heap-heavy workload (group sync, topo, GC)",
		buildFleet},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// latencyOutcome fills the latency fields from a measured-phase histogram.
func latencyOutcome(o *outcome, h *sim.Histogram) {
	o.samples = uint64(h.Count())
	if h.Count() > 0 {
		o.p50, o.p99 = h.Percentile(50), h.Percentile(99)
	}
}

// ---------------------------------------------------------------------------
// ib-npf-storm: one RC connection, ibWindow sends outstanding, alternating
// the Figure 3 message sizes. The receiver discards each buffer after its
// completion, so every message faults on arrival.

const (
	ibWindow = 8
	ibSmall  = 4 << 10
	ibLarge  = 4 << 20
)

type ibStorm struct {
	env       *bench.IBEnv
	warmMsgs  int
	total     int
	posted    []sim.Time // when each message's send was posted
	next      int        // next message to complete; RC completes in order
	bad       int        // completions whose WQE ID or length did not match
	lat       sim.Histogram
	warmEnd   sim.Time
	measuredT sim.Time
}

func ibSize(k int) int {
	if k%2 == 0 {
		return ibSmall
	}
	return ibLarge
}

// ibSlot is message k's receive buffer: ibWindow slots of ibLarge bytes,
// reused every ibWindow messages (an even window keeps a slot's size fixed).
func ibSlot(k int) mem.VAddr { return mem.VAddr(k%ibWindow) * ibLarge }

func buildIBStorm(seed int64, short bool) deployment {
	d := &ibStorm{warmMsgs: 200, total: 1200}
	if short {
		d.warmMsgs, d.total = 10, 40
	}
	e := bench.NewIBEnv(bench.IBOpts{Seed: 11 + seed - 1, Jitter: true})
	d.env = e
	d.posted = make([]sim.Time, d.total)
	bench.Warm(e.QPA, 0, ibLarge/mem.PageSize)
	e.QPB.OnRecv = d.onRecv
	for k := 0; k < ibWindow && k < d.total; k++ {
		d.post(k)
	}
	return d
}

func (d *ibStorm) post(k int) {
	e := d.env
	d.posted[k] = e.EngB.Now()
	e.QPB.PostRecv(rc.RecvWQE{ID: int64(k), Addr: ibSlot(k), Len: ibSize(k)})
	e.EngB.Call(e.Eng, func() {
		e.QPA.PostSend(rc.SendWQE{ID: int64(k), Laddr: 0, Len: ibSize(k)})
	})
}

func (d *ibStorm) onRecv(c rc.RecvCompletion) {
	e := d.env
	k := d.next
	d.next++
	if c.WQEID != int64(k) || c.Len != ibSize(k) {
		d.bad++
	}
	if k >= d.warmMsgs {
		d.lat.AddTime(e.EngB.Now() - d.posted[k])
	}
	e.ASB.DiscardPages(mem.PageNum(ibSlot(k)/mem.PageSize), ibSize(k)/mem.PageSize)
	if n := k + ibWindow; n < d.total {
		d.post(n)
	}
	if d.next == d.warmMsgs || d.next == d.total {
		e.EngB.Stop()
	}
}

func (d *ibStorm) warm() {
	d.env.Run()
	d.warmEnd = d.env.Eng.Now()
}

func (d *ibStorm) run() {
	d.env.Run()
	d.measuredT = d.env.Eng.Now() - d.warmEnd
}

func (d *ibStorm) counters() counts {
	e := d.env
	c := counts{
		"sim.events":     e.Eng.Executed(),
		"fabric.packets": e.Net.Delivered(),
		"fabric.drops":   e.Net.Dropped(),
	}
	for _, h := range []*rc.HCA{e.HCAA, e.HCAB} {
		c["rc.packets"] += h.PacketsSent.N
		c["rc.dropped"] += h.DroppedRNPF.N
		c["rc.rnr_nacks"] += h.RNRNacks.N
		c["rc.retransmits"] += h.Retransmits.N
		c["iommu.faults"] += h.MMU.Faults.N
	}
	for _, drv := range []*core.Driver{e.DrvA, e.DrvB} {
		c.addDriver(drv)
	}
	c.addSpaces(e.ASA, e.ASB)
	return c
}

func (d *ibStorm) collect(counts) outcome {
	d.env.Run() // drain trailing acknowledgments
	o := outcome{
		attempted: uint64(d.total - d.warmMsgs),
		failed:    uint64(d.bad + d.total - d.next),
		ops:       uint64(d.next - d.warmMsgs),
		simSpan:   d.measuredT,
	}
	latencyOutcome(&o, &d.lat)
	if d.next != d.total {
		o.problems = append(o.problems, fmt.Sprintf("%d of %d messages completed", d.next, d.total))
	}
	if d.bad > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d completions with the wrong WQE or length", d.bad))
	}
	return o
}

// ---------------------------------------------------------------------------
// eth-memcached: Figure 4a's cold-ring start under the backup-ring policy,
// measured after the ring has warmed.

// memcachedService is the simulated memcached's per-request CPU time, as in
// the repository's Figure 4 experiments.
const memcachedService = 50 * sim.Microsecond

type ethMemcached struct {
	env     *bench.EthEnv
	slap    *apps.Memaslap
	warmEnd sim.Time
	runEnd  sim.Time
	ops0    uint64
	aborts0 uint64
}

func buildEthMemcached(seed int64, short bool) deployment {
	d := &ethMemcached{warmEnd: 500 * sim.Millisecond, runEnd: 2 * sim.Second}
	if short {
		d.warmEnd, d.runEnd = 100*sim.Millisecond, 200*sim.Millisecond
	}
	e := bench.NewEthEnv(bench.EthOpts{Seed: 3 + seed - 1, Policy: nic.PolicyBackup, RingSize: 64})
	apps.NewKVServer(e.Server.Stack, apps.NewKVStore(e.Server.AS, 0), memcachedService)
	d.slap = apps.NewMemaslap(e.Client.Stack, apps.MemaslapConfig{
		Conns: 8, GetRatio: 0.9, ValueSize: 1024, Keys: 500,
		KeyPrefix: "k", Prepopulate: true,
	}, sim.Second)
	d.slap.Start(e.Server.Chan.Dev.Node, e.Server.Chan.Flow)
	d.env = e
	return d
}

func (d *ethMemcached) warm() {
	d.env.RunUntil(d.warmEnd)
	d.ops0 = d.slap.Ops.N
	d.aborts0 = d.env.Client.Stack.Failures.N
	*d.slap.Latency() = sim.Histogram{} // keep only measured-phase latencies
}

func (d *ethMemcached) run() { d.env.RunUntil(d.runEnd) }

func (d *ethMemcached) counters() counts {
	e := d.env
	c := counts{
		"sim.events":     e.Eng.Executed(),
		"fabric.packets": e.Net.Delivered(),
		"fabric.drops":   e.Net.Dropped(),
	}
	for _, h := range []*bench.EthHost{e.Server, e.Client} {
		c.addDevice(h.Dev)
		c["tcp.segs"] += h.Stack.SegsSent.N
		c["tcp.retransmits"] += h.Stack.Retransmits.N
	}
	c.addDriver(e.Drv)
	if e.ClientDrv != e.Drv {
		c.addDriver(e.ClientDrv)
	}
	c.addSpaces(e.Server.AS, e.Client.AS)
	return c
}

func (d *ethMemcached) collect(counts) outcome {
	d.slap.Stop()
	ops := d.slap.Ops.N - d.ops0
	aborts := d.env.Client.Stack.Failures.N - d.aborts0
	o := outcome{
		attempted: ops + aborts,
		failed:    aborts,
		ops:       ops,
		simSpan:   d.runEnd - d.warmEnd,
	}
	latencyOutcome(&o, d.slap.Latency())
	if d.slap.Failed {
		o.problems = append(o.problems, "a memaslap connection was aborted")
	}
	if ops == 0 {
		o.problems = append(o.problems, "no operations completed in the measured phase")
	}
	return o
}

// ---------------------------------------------------------------------------
// kv-reclaim: the anatomy deployment (3 servers x 4 shards x 2 replicas over
// TCP, ODP arenas, NVMe-class swap) with the tracer and fault recorder on,
// while reclaim waves squeeze every shard group for kvWaveHold of every
// kvWavePeriod. The measured phase is a second tenant started when the
// warm-up tenant finishes.

const (
	kvWaveStart  = 5 * sim.Millisecond
	kvWavePeriod = 15 * sim.Millisecond
	kvWaveHold   = 5 * sim.Millisecond
	kvWaveFloor  = 64 << 10
	kvDrain      = 50 * sim.Millisecond
	// kvMaxEvents turns a phase that never finishes into a panic; a full
	// rep executes about 2M events.
	kvMaxEvents = 100_000_000
)

type kvReclaim struct {
	eng     *sim.Engine
	net     *fabric.Network
	tr      *trace.Tracer
	svc     *kv.Service
	groups  []*mem.Group
	warmWL  *kv.Workload
	wl      *kv.Workload
	waving  bool
	runFrom sim.Time
}

func buildKVReclaim(seed int64, short bool) deployment {
	warmOps, runOps := 20_000, 100_000
	if short {
		warmOps, runOps = 200, 1000
	}
	eng := sim.NewEngine(47 + seed - 1)
	eng.MaxEvents = kvMaxEvents
	tr := trace.New(eng)
	net := fabric.New(eng, fabric.DefaultEthernet())
	svc := kv.New(eng, net, tr, kv.Config{
		ServerHosts: 3, ClientHosts: 1, Shards: 4, Replicas: 2,
		Reg: kv.RegODP, ExpectedKeys: 1024,
	})
	for _, h := range svc.Hosts {
		h.M.Swap.ReadLatency = 200 * sim.Microsecond
	}
	d := &kvReclaim{eng: eng, net: net, tr: tr, svc: svc, groups: svc.Groups(), waving: true}
	cfg := kv.WorkloadConfig{Keys: 1024, ZipfS: 1.1, GetRatio: 0.9, FrontCacheEntries: 32}
	warmCfg, runCfg := cfg, cfg
	warmCfg.Tenant, warmCfg.TargetOps, warmCfg.Prepopulate = "warm", warmOps, true
	runCfg.Tenant, runCfg.TargetOps = "run", runOps
	d.warmWL = svc.NewWorkload(warmCfg)
	d.wl = svc.NewWorkload(runCfg)
	d.warmWL.OnDone = eng.Stop
	d.wl.OnDone = eng.Stop
	eng.At(kvWaveStart, d.squeeze)
	return d
}

func (d *kvReclaim) squeeze() {
	if !d.waving {
		return
	}
	for _, g := range d.groups {
		g.SetLimit(kvWaveFloor)
	}
	d.eng.After(kvWaveHold, func() {
		for _, g := range d.groups {
			g.SetLimit(0)
		}
	})
	d.eng.After(kvWavePeriod, d.squeeze)
}

// warm and run end when their tenant's OnDone stops the engine. They call
// Run, not RunUntil: a stopped RunUntil moves the clock to its deadline.
func (d *kvReclaim) warm() {
	d.warmWL.Start()
	d.eng.Run()
}

func (d *kvReclaim) run() {
	d.runFrom = d.eng.Now()
	d.wl.Start()
	d.eng.Run()
}

func (d *kvReclaim) counters() counts {
	c := counts{
		"sim.events":          d.eng.Executed(),
		"fabric.packets":      d.net.Delivered(),
		"fabric.drops":        d.net.Dropped(),
		"tcp.retransmits":     d.tr.Counter("tcp.retransmits").Value(),
		"kv.shed":             d.svc.Shed.N,
		"kv.gets":             d.wl.Gets.N,
		"kv.front_hits":       d.wl.FrontHits.N,
		"kv.retries":          d.wl.Retries.N,
		"trace.fault_records": uint64(d.tr.FaultRecordCount()),
		"trace.dropped":       d.tr.DroppedSpans() + d.tr.DroppedFaultEvents() + d.tr.DroppedFaultRecords(),
	}
	for _, dev := range d.svc.Devices() {
		c.addDevice(dev)
		// The kv transport is TCP, so every frame a NIC sends is a segment.
		c["tcp.segs"] += dev.TxSent.N
	}
	for _, drv := range d.svc.Drivers() {
		c.addDriver(drv)
	}
	c.addSpaces(append(d.svc.Spaces(), d.svc.NetSpaces()...)...)
	return c
}

func (d *kvReclaim) collect(counts) outcome {
	d.eng.After(kvDrain, func() {
		d.svc.Stop()
		d.waving = false
	})
	d.eng.Run() // to quiescence: the heartbeats and the waves have stopped
	target := uint64(d.wl.Cfg.TargetOps)
	done := uint64(d.wl.Completed())
	o := outcome{
		attempted: target,
		failed:    d.wl.ShedSeen.N + target - done,
		ops:       done,
		simSpan:   d.wl.DoneAt - d.runFrom,
	}
	latencyOutcome(&o, &d.wl.Lat)
	if done != target {
		o.problems = append(o.problems, fmt.Sprintf("kv completed %d of %d ops", done, target))
	}
	for _, v := range d.svc.CheckConsistency() {
		o.problems = append(o.problems, "kv consistency: "+v)
	}
	return o
}

// ---------------------------------------------------------------------------
// fleet: the canonical Ethernet scale-out sweep on a fixed 8-partition group
// run by one thread. Its warm-up is the first fleetWarm of simulated time:
// every client issues its first request (clients stagger in over ~0.3 ms)
// and every server tenant materialises its ring and arena on first touch.
// Splitting the run there leaves the sweep's result unchanged.

const (
	fleetParts = 8
	fleetWarm  = 1 * sim.Millisecond
)

type fleet struct {
	g      *sim.Group
	net    *fabric.Network
	s      *topo.Sweep
	target uint64
	ran    bool
	res    *topo.Result
}

func buildFleet(seed int64, short bool) deployment {
	cfg := bench.ScaleoutConfig(topo.TransportEth, short)
	fcfg := fabric.DefaultEthernet()
	g := sim.NewGroup(42+seed-1, fleetParts, fcfg.Lookahead())
	g.SetThreads(1)
	net := fabric.NewOnGroup(g, fcfg)
	s, err := topo.New(g.Engine(0), net, cfg)
	if err != nil {
		panic("npfperf: canonical fleet config rejected: " + err.Error())
	}
	d := &fleet{g: g, net: net, s: s}
	for _, t := range cfg.Tenants {
		d.target += uint64(t.Workload.TargetOps)
	}
	return d
}

func (d *fleet) warm() {
	d.s.Start()
	d.g.RunUntil(fleetWarm)
}

func (d *fleet) run() {
	d.s.Run()
	d.ran = true
}

// result folds the sweep's result: the final one, once, after the run.
func (d *fleet) result() *topo.Result {
	if !d.ran {
		r := d.s.Result()
		return &r
	}
	if d.res == nil {
		r := d.s.Result()
		d.res = &r
	}
	return d.res
}

func (d *fleet) counters() counts {
	r := d.result()
	c := counts{
		"sim.events":        d.g.Executed(),
		"fabric.packets":    d.net.Delivered(),
		"fabric.drops":      d.net.Dropped(),
		"nic.rx_backup":     r.RxBackup,
		"nic.rx_drop_fault": r.DropsFault,
		"core.npfs":         r.NPFs,
		"core.major_npfs":   r.MajorNPFs,
		"mem.evictions":     r.Evictions,
		"topo.ops":          r.Ops,
	}
	for _, t := range r.Tenants {
		c["topo.timeouts"] += t.Timeouts
		c["topo.lost"] += t.Lost
		c["topo.shed"] += t.Shed
	}
	return c
}

func (d *fleet) collect(measured counts) outcome {
	r := d.result()
	o := outcome{
		attempted: d.target - (r.Ops - measured["topo.ops"]),
		failed:    measured["topo.lost"] + measured["topo.shed"],
		ops:       measured["topo.ops"],
		simSpan:   r.FinalTime - fleetWarm,
	}
	// The sweep exports only whole-run percentiles per tenant; the ODP
	// tenant's are the fleet's headline tail (the policy the paper is about).
	for _, t := range r.Tenants {
		if t.Reg == topo.RegODP.String() {
			o.p50, o.p99, o.samples = t.P50us, t.P99us, t.Ops
		}
	}
	if r.Ops != d.target {
		o.problems = append(o.problems, fmt.Sprintf("fleet finished %d of %d ops", r.Ops, d.target))
	}
	return o
}
