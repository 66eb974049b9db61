package bench

import (
	"fmt"
	"strings"

	"npf/internal/chaos"
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
// hanging a wedged scenario. It replaces MaxEngineEvents on every
// scenario engine (see guarded).
const maxScenarioEvents = 200_000_000

// guarded puts the scenarios' runaway guard on every engine of g.
func guarded(g *sim.Group) *sim.Group {
	for _, eng := range g.Engines() {
		eng.MaxEvents = maxScenarioEvents
	}
	return g
}

// scenarioTracer is the factory of a scenario testbed's tracers: the
// scope's Trace when it has one, else trace.New. A scenario is always
// traced: its report carries the tracer's digest.
func (s *Scope) scenarioTracer() func(*sim.Engine) *trace.Tracer {
	if s != nil && s.Trace != nil {
		return s.Trace
	}
	return trace.New
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
	// tracer (empty unless Scope.Trace started its sampler); same-seed
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
	// Run runs the scenario at seed on scope s, which counts the
	// testbed's group in Stats and makes its tracers (trace.New when s has
	// no Trace). Every testbed runs on one partition, so reports and
	// digests are byte-identical for every Workers and Engines value.
	Run func(seed int64, s *Scope) *Report
}

// Scenarios returns the registry, in fixed order. It is a function, not
// an entry of Experiments, so a binary that runs only experiments does
// not link the scenarios.
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

// RunScenario runs the scenario named name on scope s.
func RunScenario(name string, seed int64, s *Scope) (*Report, error) {
	var names []string
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc.Run(seed, s), nil
		}
		names = append(names, sc.Name)
	}
	return nil, fmt.Errorf("chaos: unknown scenario %q (have %s)", name, strings.Join(names, ", "))
}

// ---------------------------------------------------------------------------
// Ethernet testbed.

// chaosEthEnv is a compact two-host Ethernet testbed: an ODP server with
// a backup ring and a warm, unmodified client. It differs from EthEnv in
// five ways: its NICs keep their firmware jitter; the server's driver
// runs the scenario's config; the client's buffers are warmed
// (tcp.Stack.WarmBuffers), not statically pinned; the server's backup
// ring starts cold, with nothing prefaulted; and the testbed hands its
// server-side parts to the scenarios as chaos targets. Both hosts run on
// the testbed's one-partition group; only the server is traced.
type chaosEthEnv struct {
	g      *sim.Group
	tr     *trace.Tracer
	net    *fabric.Network
	srv    *topo.Host // server host
	group  *mem.Group // the server's cgroup (nil: none)
	server *EthHost
	client *tcp.Stack
}

func newChaosEthEnv(s *Scope, seed int64, ringSize int, dcfg core.Config, cgroupLimit int64) *chaosEthEnv {
	e := &chaosEthEnv{}
	fcfg := fabric.DefaultEthernet()
	e.g = guarded(s.newBenchGroup(seed, 1, fcfg.Lookahead()))
	eng := e.g.Engine(0)
	e.tr = s.scenarioTracer()(eng)
	e.net = fabric.NewOnGroup(e.g, fcfg)
	ncfg := nic.DefaultConfig()
	e.srv = topo.HostSpec{Driver: dcfg, NIC: &ncfg}.Build(eng, e.net, e.tr, "server")
	if cgroupLimit > 0 {
		e.group = mem.NewGroup("chaos-cgroup", cgroupLimit)
	}
	// An ODP endpoint never fails to pin.
	e.server, _ = newEndpoint(e.srv, "server", nic.PolicyBackup, ringSize, e.group, 0)

	// The client is warm and untraced: its buffers are touched and mapped
	// up front, never pinned.
	cli := topo.HostSpec{NIC: &ncfg}.Build(eng, e.net, nil, "client")
	cAS := cli.M.NewAddressSpace("client", nil)
	cch := cli.Dev.NewChannel("client", cAS, 256, nic.PolicyPinned)
	e.client = tcp.NewStack(cch, tcp.DefaultConfig())
	e.client.WarmBuffers()
	return e
}

func (e *chaosEthEnv) targets() chaos.Targets {
	t := chaos.Targets{
		Eng:      e.srv.Eng,
		Net:      e.net,
		Firmware: []*nic.Firmware{&e.srv.Dev.Firmware},
		Drivers:  []*core.Driver{e.srv.Drv},
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
func ethTraffic(e *chaosEthEnv, r *Report, msgs, msgBytes int, start, gap, horizon sim.Time) {
	e.server.Stack.Listen(func(c *tcp.Conn) {
		c.OnMessage = func(payload any, n int) { r.Delivered++ }
	})
	conn := e.client.Dial(e.server.Dev.Node, e.server.Chan.Flow)
	conn.OnFail = func(err error) {
		r.Failures = append(r.Failures, fmt.Sprintf("connection failed: %v", err))
	}
	r.Sent = msgs
	for i := 0; i < msgs; i++ {
		e.srv.Eng.At(start+sim.Time(i)*gap, func() { conn.Send(msgBytes, nil) })
	}
	end := e.g.RunUntil(horizon)

	r.Series = seriesCSV(e.tr)
	r.Digest = e.tr.Digest()
	r.NPFs = e.srv.Drv.NPFs.N
	r.InjectedDrops = e.net.InjectedDrops()
	r.Retransmits = e.client.Retransmits.N + e.server.Stack.Retransmits.N
	r.ResolverTimeouts = e.srv.Drv.ResolverTimeouts.N
	r.DegradedPins = e.srv.Drv.DegradedPins.N
	r.InvDuplicates = e.srv.Drv.InvDuplicates.N
	r.FaultP99Us = e.srv.Drv.Hist.Total.Percentile(99)
	r.SimSeconds = end.Seconds()

	// Universal invariants: no lost completions, no stuck rings.
	r.check(r.Delivered == r.Sent, "lost completions: delivered %d of %d", r.Delivered, r.Sent)
	r.check(e.srv.Drv.PendingBackupWork() == 0, "stuck ring: %d backup entries still pending", e.srv.Drv.PendingBackupWork())
}

// ---------------------------------------------------------------------------
// Ethernet scenarios.

func runLossBurst(seed int64, s *Scope) *Report {
	r := &Report{Scenario: "loss-burst-during-replay", Seed: seed}
	e := newChaosEthEnv(s, seed, 64, core.DefaultConfig(), 0)
	serverNode := e.server.Dev.Node
	chaos.Arm(chaos.NewPlan(
		chaos.LossBurst{At: 2 * sim.Millisecond, Duration: 3 * sim.Millisecond, Prob: 0.3,
			Nodes: []fabric.NodeID{serverNode}},
		// After the uncorrelated burst, a Gilbert–Elliott tail: bursty
		// correlated loss while retransmissions replay the parked window.
		chaos.GilbertElliott{At: 5 * sim.Millisecond, Duration: 10 * sim.Millisecond,
			Model: chaos.GEParams{PGoodBad: 0.01, PBadGood: 0.1, LossBad: 0.5},
			Nodes: []fabric.NodeID{serverNode}},
	), e.targets())
	ethTraffic(e, r, 200, 2000, sim.Millisecond, 20*sim.Microsecond, 120*sim.Second)
	r.check(r.InjectedDrops > 0, "fault never fired: no injected drops")
	r.check(r.FaultP99Us < 2000, "NPF p99 %.0f us exceeds 2 ms", r.FaultP99Us)
	return r.finish(e.tr)
}

func runInvalidateWhileParked(seed int64, s *Scope) *Report {
	r := &Report{Scenario: "invalidate-while-parked", Seed: seed}
	e := newChaosEthEnv(s, seed, 64, core.DefaultConfig(), 0)
	plan := chaos.NewPlan(chaos.InvalidationChaos{
		At: 0, Duration: 60 * sim.Second,
		Extra: 20 * sim.Microsecond, Duplicates: 2,
	})
	// Discard the server's RX buffers repeatedly while parked packets are
	// being replayed: each discard fires the (duplicated) notifier flow and
	// forces minor refaults on buffers the resolver may be mid-way through.
	rxBase, rxLen := e.server.Stack.RxBuffers()
	for i := 0; i < 5; i++ {
		plan.Add(chaos.Callback{
			At: sim.Time(1500+500*i) * sim.Microsecond,
			Fn: func(ij *chaos.Injector) {
				e.server.AS.DiscardPages(rxBase.Page(), int(rxLen/mem.PageSize))
			},
		})
	}
	chaos.Arm(plan, e.targets())
	ethTraffic(e, r, 150, 2000, sim.Millisecond, 25*sim.Microsecond, 120*sim.Second)
	r.check(r.InvDuplicates > 0, "fault never fired: no duplicated invalidations")
	r.check(r.FaultP99Us < 5000, "NPF p99 %.0f us exceeds 5 ms", r.FaultP99Us)
	return r.finish(e.tr)
}

func runThrashUnderPressure(seed int64, s *Scope) *Report {
	r := &Report{Scenario: "thrash-under-pressure", Seed: seed}
	e := newChaosEthEnv(s, seed, 64, core.DefaultConfig(), 16<<20)
	// Fast NVMe-class swap: the scenario stresses reclaim racing NPFs, not
	// disk latency, and a 10 ms-per-page device would dominate every batch.
	e.srv.M.Swap.ReadLatency = 200 * sim.Microsecond
	chaos.Arm(chaos.NewPlan(chaos.MemoryPressure{
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

func runSlowResolver(seed int64, s *Scope) *Report {
	r := &Report{Scenario: "slow-resolver", Seed: seed}
	dcfg := core.DefaultConfig()
	dcfg.RetryBackoffBase = 50 * sim.Microsecond
	dcfg.RetryBackoffMax = 400 * sim.Microsecond
	dcfg.MaxNPFRetries = 3
	e := newChaosEthEnv(s, seed, 64, dcfg, 0)
	chaos.Arm(chaos.NewPlan(chaos.ResolverSlowdown{
		At: sim.Millisecond, Duration: 4 * sim.Millisecond,
		Extra: 100 * sim.Microsecond, TimeoutProb: 1,
	}), e.targets())
	ethTraffic(e, r, 150, 2000, sim.Millisecond, 25*sim.Microsecond, 120*sim.Second)
	r.check(r.ResolverTimeouts > 0, "fault never fired: no resolver timeouts")
	r.check(r.DegradedPins > 0, "escape hatch never tripped: no degraded pins")
	r.check(r.FaultP99Us < 10000, "NPF p99 %.0f us exceeds 10 ms", r.FaultP99Us)
	return r.finish(e.tr)
}

func runColdRingStorm(seed int64, s *Scope) *Report {
	r := &Report{Scenario: "cold-ring-storm", Seed: seed}
	e := newChaosEthEnv(s, seed, 32, core.DefaultConfig(), 0)
	chaos.Arm(chaos.NewPlan(chaos.FirmwareStall{
		At: sim.Millisecond, Duration: 3 * sim.Millisecond,
		Mult: 3, Add: 100 * sim.Microsecond,
	}), e.targets())
	ethTraffic(e, r, 300, 4000, sim.Millisecond, 5*sim.Microsecond, 120*sim.Second)
	r.check(e.srv.Dev.RxToBackup.N > 0, "cold ring never parked a packet")
	r.check(r.FaultP99Us < 10000, "NPF p99 %.0f us exceeds 10 ms", r.FaultP99Us)
	return r.finish(e.tr)
}

// ---------------------------------------------------------------------------
// InfiniBand scenario.

func runLinkFlap(seed int64, s *Scope) *Report {
	r := &Report{Scenario: "link-flap", Seed: seed}
	eng := guarded(s.newBenchGroup(seed, 1, 0)).Engine(0)
	tr := s.scenarioTracer()(eng)
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

	chaos.Arm(chaos.NewPlan(chaos.LinkFlap{
		Node: hcaB.Node, At: sim.Millisecond, Down: 500 * sim.Microsecond,
		Period: 1500 * sim.Microsecond, Times: 3,
	}), chaos.Targets{Eng: eng, Net: net, Firmware: []*nic.Firmware{&hcaA.Firmware, &hcaB.Firmware},
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
