package chaos

import (
	"fmt"
	"strings"

	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/tcp"
	"npf/internal/topo"
	"npf/internal/trace"
)

// maxScenarioEvents trips the engine's runaway diagnostic instead of
// hanging a wedged scenario.
const maxScenarioEvents = 200_000_000

// Options are one scenario run's settings. The zero value is the default
// run: a one-partition testbed traced by trace.New, without a sampler.
type Options struct {
	// Engines selects the engine topology the testbeds build (see
	// newGroup), as bench.Scope.Engines does: 0 builds each testbed on a
	// one-partition group, the single-engine mode; any value >= 1 shards
	// it across a two-partition PDES group — fault-target tier (servers)
	// on partition 0, workload tier (clients) on partition 1 — with
	// Engines worker threads. The partition structure is fixed, so reports
	// and digests are byte-identical for every Engines >= 1; only
	// wall-clock changes. Chaos plans arm on partition 0; the injector
	// keeps only the targets that live there. The IB link-flap scenario
	// keeps a single engine regardless (both of its hosts are fault
	// targets). cmd/npfbench sets it from -engines.
	Engines int
	// Trace, when non-nil, builds every testbed tracer in place of
	// trace.New. A factory that starts each tracer's sampler fills
	// Report.Series. cmd/npfbench sets it for -trace and -series; tests
	// use it to see what a scenario recorded.
	Trace func(*sim.Engine) *trace.Tracer
}

// newGroup builds a scenario testbed's engine group: one partition at
// Engines == 0, two at Engines >= 1, run on Engines worker threads, with
// the runaway guard on every engine.
func (o Options) newGroup(seed int64, lookahead sim.Time) *sim.Group {
	parts := 1
	if o.Engines >= 1 {
		parts = 2
	}
	g := sim.NewGroup(seed, parts, lookahead)
	g.SetThreads(o.Engines)
	for _, eng := range g.Engines() {
		eng.MaxEvents = maxScenarioEvents
	}
	return g
}

// tracer builds a testbed tracer on eng.
func (o Options) tracer(eng *sim.Engine) *trace.Tracer {
	if o.Trace != nil {
		return o.Trace(eng)
	}
	return trace.New(eng)
}

// seriesCSV renders a tracer's sampled series (empty when sampling is off).
func seriesCSV(tr *trace.Tracer) string {
	s := tr.Sampler().Series()
	if s == nil {
		return ""
	}
	var b strings.Builder
	if err := trace.WriteSeriesSet(&b, []*trace.Series{s}); err != nil {
		return ""
	}
	return b.String()
}

// Report is the outcome of one scenario run: pass/fail per invariant plus
// the headline numbers and the trace digest the determinism checks compare.
type Report struct {
	Scenario string
	Seed     int64
	Pass     bool
	Failures []string

	// Digest condenses every span and metric of the run; identical seeds
	// must produce identical digests (byte-identical replay).
	Digest uint64

	// Series is the sampled time-series CSV of the run's fault-target
	// tracer (empty unless Options.Trace started its sampler); same-seed
	// replays must agree byte-for-byte.
	Series string

	Sent             int
	Delivered        int
	NPFs             uint64
	InjectedDrops    uint64
	Retransmits      uint64
	ResolverTimeouts uint64
	DegradedPins     uint64
	InvDuplicates    uint64
	FaultP99Us       float64
	SimSeconds       float64

	// Distributed-KV scenario fields (zero for the single-host scenarios).
	KVOps       uint64
	Failovers   uint64
	Resyncs     uint64
	Shed        uint64
	GroupEvicts uint64
	KVp99Us     float64

	// Flight-recorder excerpt, attached only when an invariant failed:
	// the last causal fault events before the end of the run, rendered and
	// digested so same-seed failures are byte-comparable.
	FlightRecorder string
	FlightEvents   int
	FlightDigest   uint64
}

// flightExcerptEvents bounds the flight-recorder dump attached to a failing
// report: enough tail to see the faults in flight when the invariant broke,
// small enough to read in CI logs.
const flightExcerptEvents = 64

// check records a failed invariant.
func (r *Report) check(ok bool, format string, args ...any) {
	if !ok {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish seals the report. When an invariant failed and the scenario ran
// with a tracer, it attaches the flight-recorder excerpt: the last causal
// fault lifecycle events, sorted into total order and digested.
func (r *Report) finish(tr *trace.Tracer) *Report {
	r.Pass = len(r.Failures) == 0
	if !r.Pass && tr != nil {
		ev := tr.FlightExcerpt(flightExcerptEvents)
		if len(ev) > 0 {
			var b strings.Builder
			trace.WriteFlightRecorder(&b, ev)
			r.FlightRecorder = b.String()
			r.FlightEvents = len(ev)
			r.FlightDigest = trace.DigestFaultEvents(ev)
		}
	}
	return r
}

// Render prints the report in the style of the bench experiment renderers.
func (r *Report) Render() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "chaos scenario %-28s seed=%-4d %s\n", r.Scenario, r.Seed, status)
	fmt.Fprintf(&b, "  delivered %d/%d msgs, %d NPFs (p99 %.0f us), %d injected drops, %d retx\n",
		r.Delivered, r.Sent, r.NPFs, r.FaultP99Us, r.InjectedDrops, r.Retransmits)
	fmt.Fprintf(&b, "  resolver timeouts %d, degraded pins %d, dup invalidations %d, %.3fs simulated, digest %016x\n",
		r.ResolverTimeouts, r.DegradedPins, r.InvDuplicates, r.SimSeconds, r.Digest)
	if r.KVOps > 0 {
		fmt.Fprintf(&b, "  kv: %d ops (p99 %.0f us), %d failovers, %d resyncs, %d shed, %d group evictions\n",
			r.KVOps, r.KVp99Us, r.Failovers, r.Resyncs, r.Shed, r.GroupEvicts)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL: %s\n", f)
	}
	if r.FlightRecorder != "" {
		fmt.Fprintf(&b, "  flight recorder: last %d fault events (digest %016x)\n",
			r.FlightEvents, r.FlightDigest)
		for _, line := range strings.Split(strings.TrimRight(r.FlightRecorder, "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}

// Scenario is one named, self-contained chaos experiment: it builds its own
// compact testbed, arms a fault plan, drives a workload, and checks the
// invariants the paper's design promises to keep under that fault.
type Scenario struct {
	Name string
	Desc string
	Run  func(seed int64, o Options) *Report
}

// Scenarios returns the registry, in fixed order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "loss-burst-during-replay",
			Desc: "30% uncorrelated loss at the server while the cold backup ring is replaying parked packets; TCP must deliver everything",
			Run:  runLossBurst,
		},
		{
			Name: "invalidate-while-parked",
			Desc: "delayed+duplicated MMU invalidations and targeted RX-buffer evictions race the backup resolver; coherence must hold",
			Run:  runInvalidateWhileParked,
		},
		{
			Name: "thrash-under-pressure",
			Desc: "cgroup memory-pressure waves reclaim the IOuser's buffers mid-flight; ODP must keep making progress",
			Run:  runThrashUnderPressure,
		},
		{
			Name: "slow-resolver",
			Desc: "the fault resolver times out repeatedly; exponential backoff plus the degrade-to-pinned escape hatch must unwedge it",
			Run:  runSlowResolver,
		},
		{
			Name: "link-flap",
			Desc: "an IB link flaps three times during an ODP message stream; RC retransmission must recover every message",
			Run:  runLinkFlap,
		},
		{
			Name: "cold-ring-storm",
			Desc: "a burst of traffic into an entirely cold small ring under a firmware stall; the backup ring must drain without sticking",
			Run:  runColdRingStorm,
		},
		{
			Name: "kv-under-invalidation-storm",
			Desc: "delayed+duplicated invalidations and arena page discards hammer a replicated KV service's ODP servers; every op must complete and replicas must converge",
			Run:  runKVInvalidationStorm,
		},
		{
			Name: "kv-replica-link-flap",
			Desc: "a KV shard primary's host drops off the fabric mid-workload; failover must promote a backup, clients must reroute, and the rejoined host must resync",
			Run:  runKVReplicaLinkFlap,
		},
		{
			Name: "kv-memory-pressure",
			Desc: "reclaim waves squeeze the per-shard cgroups under live KV traffic; the service must shed-or-evict gracefully and keep replicas identical",
			Run:  runKVMemoryPressure,
		},
	}
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// RunScenario runs one named scenario.
func RunScenario(name string, seed int64, o Options) (*Report, error) {
	s, ok := Lookup(name)
	if !ok {
		var names []string
		for _, s := range Scenarios() {
			names = append(names, s.Name)
		}
		return nil, fmt.Errorf("chaos: unknown scenario %q (have %s)", name, strings.Join(names, ", "))
	}
	return s.Run(seed, o), nil
}

// ---------------------------------------------------------------------------
// Ethernet testbed.

// ethEnv is a compact two-host Ethernet testbed: an ODP server with a
// backup ring and a warm, unmodified client. It differs from
// internal/bench's EthEnv in three ways: the client's buffers are warmed
// (tcp.Stack.WarmBuffers), not statically pinned; the server's backup
// ring starts cold, with nothing prefaulted; and the testbed hands its
// server-side parts to the scenarios as chaos targets. The server lives
// on partition 0 of the testbed's group (with the tracer and every chaos
// target) and the client on its last partition: partition 1 at
// Options.Engines >= 1, else the same one engine.
type ethEnv struct {
	eng      *sim.Engine // server engine (partition 0)
	engC     *sim.Engine // client engine (the last partition)
	g        *sim.Group
	tr       *trace.Tracer
	net      *fabric.Network
	m        *mem.Machine
	group    *mem.Group
	drv      *core.Driver
	sDev     *nic.Device
	server   *tcp.Stack
	serverAS *mem.AddressSpace
	client   *tcp.Stack
}

func newEthEnv(o Options, seed int64, ringSize int, dcfg core.Config, cgroupLimit int64) *ethEnv {
	e := &ethEnv{}
	fcfg := fabric.DefaultEthernet()
	e.g = o.newGroup(seed, fcfg.Lookahead())
	e.eng, e.engC = e.g.Engine(0), e.g.Engine(e.g.Parts()-1)
	e.tr = o.tracer(e.eng)
	e.net = fabric.NewOnGroup(e.g, fcfg)
	ncfg := nic.DefaultConfig()
	srv := topo.HostSpec{Driver: dcfg, NIC: &ncfg}.Build(e.eng, e.net, e.tr, "server")
	e.m, e.drv, e.sDev = srv.M, srv.Drv, srv.Dev
	if cgroupLimit > 0 {
		e.group = mem.NewGroup("chaos-cgroup", cgroupLimit)
	}
	e.serverAS = e.m.NewAddressSpace("server", e.group)
	sch := e.sDev.NewChannel("server", e.serverAS, ringSize, nic.PolicyBackup)
	e.drv.EnableODP(sch)
	e.server = tcp.NewStack(sch, tcp.DefaultConfig())

	// The client is warm and untraced: its buffers are touched and mapped
	// up front, never pinned.
	cli := topo.HostSpec{NIC: &ncfg}.Build(e.engC, e.net, nil, "client")
	cAS := cli.M.NewAddressSpace("client", nil)
	cch := cli.Dev.NewChannel("client", cAS, 256, nic.PolicyPinned)
	e.client = tcp.NewStack(cch, tcp.DefaultConfig())
	e.client.WarmBuffers()
	return e
}

// run drives the testbed — every partition — to the horizon.
func (e *ethEnv) run(horizon sim.Time) sim.Time { return e.g.RunUntil(horizon) }

func (e *ethEnv) targets() Targets {
	t := Targets{
		Eng:      e.eng,
		Net:      e.net,
		Firmware: []*nic.Firmware{&e.sDev.Firmware},
		Drivers:  []*core.Driver{e.drv},
		Tracer:   e.tr,
	}
	if e.group != nil {
		t.Groups = []*mem.Group{e.group}
	}
	return t
}

// ethTraffic paces msgs client→server messages of msgBytes each, one every
// gap starting at start, and runs the engine to the horizon. It fills the
// report's traffic and driver fields.
func ethTraffic(e *ethEnv, r *Report, msgs, msgBytes int, start, gap, horizon sim.Time) {
	e.server.Listen(func(c *tcp.Conn) {
		c.OnMessage = func(payload any, n int) { r.Delivered++ }
	})
	conn := e.client.Dial(e.server.Channel().Dev.Node, e.server.Channel().Flow)
	conn.OnFail = func(err error) {
		r.Failures = append(r.Failures, fmt.Sprintf("connection failed: %v", err))
	}
	r.Sent = msgs
	// Sends originate at the client, so they are paced on its engine.
	for i := 0; i < msgs; i++ {
		e.engC.At(start+sim.Time(i)*gap, func() { conn.Send(msgBytes, nil) })
	}
	end := e.run(horizon)

	r.Series = seriesCSV(e.tr)
	r.Digest = e.tr.Digest()
	r.NPFs = e.drv.NPFs.N
	r.InjectedDrops = e.net.InjectedDrops()
	r.Retransmits = e.client.Retransmits.N + e.server.Retransmits.N
	r.ResolverTimeouts = e.drv.ResolverTimeouts.N
	r.DegradedPins = e.drv.DegradedPins.N
	r.InvDuplicates = e.drv.InvDuplicates.N
	r.FaultP99Us = e.drv.Hist.Total.Percentile(99)
	r.SimSeconds = end.Seconds()

	// Universal invariants: no lost completions, no stuck rings.
	r.check(r.Delivered == r.Sent, "lost completions: delivered %d of %d", r.Delivered, r.Sent)
	r.check(e.drv.PendingBackupWork() == 0, "stuck ring: %d backup entries still pending", e.drv.PendingBackupWork())
}

// ---------------------------------------------------------------------------
// Ethernet scenarios.

func runLossBurst(seed int64, o Options) *Report {
	r := &Report{Scenario: "loss-burst-during-replay", Seed: seed}
	e := newEthEnv(o, seed, 64, core.DefaultConfig(), 0)
	serverNode := e.server.Channel().Dev.Node
	Arm(NewPlan(
		LossBurst{At: 2 * sim.Millisecond, Duration: 3 * sim.Millisecond, Prob: 0.3,
			Nodes: []fabric.NodeID{serverNode}},
		// After the uncorrelated burst, a Gilbert–Elliott tail: bursty
		// correlated loss while retransmissions replay the parked window.
		GilbertElliott{At: 5 * sim.Millisecond, Duration: 10 * sim.Millisecond,
			Model: GEParams{PGoodBad: 0.01, PBadGood: 0.1, LossBad: 0.5},
			Nodes: []fabric.NodeID{serverNode}},
	), e.targets())
	ethTraffic(e, r, 200, 2000, sim.Millisecond, 20*sim.Microsecond, 120*sim.Second)
	r.check(r.InjectedDrops > 0, "fault never fired: no injected drops")
	r.check(r.FaultP99Us < 2000, "NPF p99 %.0f us exceeds 2 ms", r.FaultP99Us)
	return r.finish(e.tr)
}

func runInvalidateWhileParked(seed int64, o Options) *Report {
	r := &Report{Scenario: "invalidate-while-parked", Seed: seed}
	e := newEthEnv(o, seed, 64, core.DefaultConfig(), 0)
	plan := NewPlan(InvalidationChaos{
		At: 0, Duration: 60 * sim.Second,
		Extra: 20 * sim.Microsecond, Duplicates: 2,
	})
	// Discard the server's RX buffers repeatedly while parked packets are
	// being replayed: each discard fires the (duplicated) notifier flow and
	// forces minor refaults on buffers the resolver may be mid-way through.
	rxBase, rxLen := e.server.RxBuffers()
	for i := 0; i < 5; i++ {
		plan.Add(Callback{
			At: sim.Time(1500+500*i) * sim.Microsecond,
			Fn: func(ij *Injector) {
				e.serverAS.DiscardPages(rxBase.Page(), int(rxLen/mem.PageSize))
			},
		})
	}
	Arm(plan, e.targets())
	ethTraffic(e, r, 150, 2000, sim.Millisecond, 25*sim.Microsecond, 120*sim.Second)
	r.check(r.InvDuplicates > 0, "fault never fired: no duplicated invalidations")
	r.check(r.FaultP99Us < 5000, "NPF p99 %.0f us exceeds 5 ms", r.FaultP99Us)
	return r.finish(e.tr)
}

func runThrashUnderPressure(seed int64, o Options) *Report {
	r := &Report{Scenario: "thrash-under-pressure", Seed: seed}
	e := newEthEnv(o, seed, 64, core.DefaultConfig(), 16<<20)
	// Fast NVMe-class swap: the scenario stresses reclaim racing NPFs, not
	// disk latency, and a 10 ms-per-page device would dominate every batch.
	e.m.Swap.ReadLatency = 200 * sim.Microsecond
	Arm(NewPlan(MemoryPressure{
		At: 1500 * sim.Microsecond, Period: sim.Millisecond, Waves: 5,
		LowBytes: 64 << 10, HighBytes: 16 << 20,
	}), e.targets())
	ethTraffic(e, r, 200, 4000, sim.Millisecond, 20*sim.Microsecond, 120*sim.Second)
	r.check(e.group.Evictions.N > 0, "fault never fired: no pressure evictions")
	// Re-faulting dirty evicted buffers reads swap (10 ms majors): the tail
	// is allowed to reach tens of milliseconds but must stay bounded.
	r.check(r.FaultP99Us < 50000, "NPF p99 %.0f us exceeds 50 ms", r.FaultP99Us)
	return r.finish(e.tr)
}

func runSlowResolver(seed int64, o Options) *Report {
	r := &Report{Scenario: "slow-resolver", Seed: seed}
	dcfg := core.DefaultConfig()
	dcfg.RetryBackoffBase = 50 * sim.Microsecond
	dcfg.RetryBackoffMax = 400 * sim.Microsecond
	dcfg.MaxNPFRetries = 3
	dcfg.DegradeToPinned = true
	e := newEthEnv(o, seed, 64, dcfg, 0)
	Arm(NewPlan(ResolverSlowdown{
		At: sim.Millisecond, Duration: 4 * sim.Millisecond,
		Extra: 100 * sim.Microsecond, TimeoutProb: 1,
	}), e.targets())
	ethTraffic(e, r, 150, 2000, sim.Millisecond, 25*sim.Microsecond, 120*sim.Second)
	r.check(r.ResolverTimeouts > 0, "fault never fired: no resolver timeouts")
	r.check(r.DegradedPins > 0, "escape hatch never tripped: no degraded pins")
	r.check(r.FaultP99Us < 10000, "NPF p99 %.0f us exceeds 10 ms", r.FaultP99Us)
	return r.finish(e.tr)
}

func runColdRingStorm(seed int64, o Options) *Report {
	r := &Report{Scenario: "cold-ring-storm", Seed: seed}
	e := newEthEnv(o, seed, 32, core.DefaultConfig(), 0)
	Arm(NewPlan(FirmwareStall{
		At: sim.Millisecond, Duration: 3 * sim.Millisecond,
		Mult: 3, Add: 100 * sim.Microsecond,
	}), e.targets())
	ethTraffic(e, r, 300, 4000, sim.Millisecond, 5*sim.Microsecond, 120*sim.Second)
	r.check(e.sDev.RxToBackup.N > 0, "cold ring never parked a packet")
	r.check(r.FaultP99Us < 10000, "NPF p99 %.0f us exceeds 10 ms", r.FaultP99Us)
	return r.finish(e.tr)
}

// ---------------------------------------------------------------------------
// InfiniBand scenario.

func runLinkFlap(seed int64, o Options) *Report {
	r := &Report{Scenario: "link-flap", Seed: seed}
	eng := sim.NewEngine(seed)
	eng.MaxEvents = maxScenarioEvents
	tr := o.tracer(eng)
	net := fabric.New(eng, fabric.DefaultInfiniBand())
	cfg := rc.DefaultConfig()
	// Both hosts are fault targets, so both stay on the one engine; only
	// the receiver, B, is traced.
	spec := topo.HostSpec{HCA: &cfg}
	a, b := spec.Build(eng, net, nil, "a"), spec.Build(eng, net, tr, "b")
	hcaA, hcaB, drvA, drvB := a.HCA, b.HCA, a.Drv, b.Drv
	asA, asB := a.M.NewAddressSpace("a", nil), b.M.NewAddressSpace("b", nil)
	asA.MapBytes(64 << 20)
	asB.MapBytes(64 << 20)
	qpA, qpB := hcaA.NewQP(asA), hcaB.NewQP(asB)
	rc.Connect(qpA, qpB)
	drvA.EnableODPQP(qpA)
	drvB.EnableODPQP(qpB)

	const msgs, msgBytes = 60, 16 << 10
	r.Sent = msgs
	var completed int
	qpB.OnRecv = func(c rc.RecvCompletion) { r.Delivered++ }
	qpA.OnSendComplete = func(int64) { completed++ }
	for i := 0; i < msgs; i++ {
		addr := mem.VAddr(int64(i) * msgBytes)
		qpB.PostRecv(rc.RecvWQE{ID: int64(i), Addr: addr, Len: msgBytes})
	}
	// The sender's source buffers start warm (the receiver is the ODP side
	// under test); each send lands in a cold receive buffer.
	if _, err := asA.TouchPages(0, msgs*msgBytes/mem.PageSize, true); err != nil {
		panic(err)
	}
	for i := 0; i < msgs; i++ {
		i := i
		eng.At(sim.Time(i)*100*sim.Microsecond, func() {
			qpA.PostSend(rc.SendWQE{ID: int64(i), Laddr: mem.VAddr(int64(i) * msgBytes), Len: msgBytes})
		})
	}

	Arm(NewPlan(LinkFlap{
		Node: hcaB.Node, At: sim.Millisecond, Down: 500 * sim.Microsecond,
		Period: 1500 * sim.Microsecond, Times: 3,
	}), Targets{Eng: eng, Net: net, Firmware: []*nic.Firmware{&hcaA.Firmware, &hcaB.Firmware},
		Drivers: []*core.Driver{drvA, drvB}, Tracer: tr})

	end := eng.RunUntil(120 * sim.Second)
	r.Series = seriesCSV(tr)
	r.Digest = tr.Digest()
	r.NPFs = drvB.NPFs.N
	r.Retransmits = hcaA.Retransmits.N + hcaB.Retransmits.N
	r.FaultP99Us = drvB.Hist.Total.Percentile(99)
	r.SimSeconds = end.Seconds()
	r.check(r.Delivered == msgs, "lost completions: delivered %d of %d", r.Delivered, msgs)
	r.check(completed == msgs, "lost send completions: %d of %d", completed, msgs)
	r.check(r.Retransmits > 0, "fault never fired: no retransmissions")
	r.check(r.FaultP99Us < 2000, "NPF p99 %.0f us exceeds 2 ms", r.FaultP99Us)
	return r.finish(tr)
}
