package fabric

import (
	"testing"

	"npf/internal/sim"
)

// sink records delivered packets with their arrival times.
type sink struct {
	eng  *sim.Engine
	pkts []*Packet
	at   []sim.Time
}

func (s *sink) Deliver(pkt *Packet) {
	s.pkts = append(s.pkts, pkt)
	s.at = append(s.at, s.eng.Now())
}

func setup(cfg Config) (*sim.Engine, *Network, *sink, *sink, NodeID, NodeID) {
	eng := sim.NewEngine(1)
	net := New(eng, cfg)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	ida := net.AttachOn(a, eng)
	idb := net.AttachOn(b, eng)
	return eng, net, a, b, ida, idb
}

// setNodeRate sets both port rates of one node, as a slow NIC on a faster
// fabric would have.
func setNodeRate(net *Network, id NodeID, rateBps int64) {
	nd := net.nodes[id]
	nd.egress.rateBps = rateBps
	nd.ingress.rateBps = rateBps
}

func TestDeliveryLatency(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 2 * sim.Microsecond} // 1 B/ns
	eng, net, _, b, ida, idb := setup(cfg)
	net.Send(&Packet{Src: ida, Dst: idb, Size: 1000})
	eng.Run()
	if len(b.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(b.pkts))
	}
	// 1000 ns egress + 2000 ns prop + 1000 ns ingress.
	if want := sim.Time(4000); b.at[0] != want {
		t.Fatalf("arrival = %v, want %v", b.at[0], want)
	}
}

func TestSerializationQueueing(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 0}
	eng, net, _, b, ida, idb := setup(cfg)
	for i := 0; i < 3; i++ {
		net.Send(&Packet{Src: ida, Dst: idb, Size: 1000})
	}
	eng.Run()
	if len(b.at) != 3 {
		t.Fatalf("delivered %d", len(b.at))
	}
	// Back-to-back at line rate: one packet per 1000 ns after the pipe
	// fills (egress+ingress for the first = 2000 ns).
	if b.at[0] != 2000 || b.at[1] != 3000 || b.at[2] != 4000 {
		t.Fatalf("arrivals = %v", b.at)
	}
}

func TestOrderingPreserved(t *testing.T) {
	cfg := DefaultEthernet()
	eng, net, _, b, ida, idb := setup(cfg)
	for i := 0; i < 50; i++ {
		net.Send(&Packet{Src: ida, Dst: idb, Size: 1500, Payload: i})
	}
	eng.Run()
	for i, p := range b.pkts {
		if p.Payload.(int) != i {
			t.Fatalf("reordered: got %v at %d", p.Payload, i)
		}
	}
}

// slowIngress sends ten 1000 B packets from a to b at 1000 ns each while b
// serializes one per 100 µs, so b's ingress holds the first in service and
// a backlog behind it. It returns the bytes queued at b's ingress once the
// last packet has arrived.
func slowIngress(eng *sim.Engine, net *Network, ida, idb NodeID) (queued int) {
	setNodeRate(net, idb, 8e7)
	for i := 0; i < 10; i++ {
		net.Send(&Packet{Src: ida, Dst: idb, Size: 1000})
	}
	eng.RunUntil(10_000)
	queued = net.nodes[idb].ingress.queuedBytes
	eng.Run()
	return queued
}

func TestIngressOverflowDropsWhenLossy(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 0, IngressBufferBytes: 3000}
	eng, net, _, b, ida, idb := setup(cfg)
	if q := slowIngress(eng, net, ida, idb); q != 3000 {
		t.Fatalf("queued at the full ingress: %d bytes, want 3000 (buffer capacity)", q)
	}
	// One packet in service plus a full buffer get through; the rest drop.
	if len(b.pkts) != 4 || net.Dropped() != 6 {
		t.Fatalf("full lossy ingress delivered %d and dropped %d, want 4 and 6", len(b.pkts), net.Dropped())
	}
}

func TestLosslessNeverDrops(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 0, IngressBufferBytes: 2000, Lossless: true}
	eng, net, _, b, ida, idb := setup(cfg)
	if q := slowIngress(eng, net, ida, idb); q != 9000 {
		t.Fatalf("queued at the lossless ingress: %d bytes, want 9000 (past its 2000 B buffer)", q)
	}
	if len(b.pkts) != 10 {
		t.Fatalf("lossless delivered %d, want 10", len(b.pkts))
	}
	if net.Dropped() != 0 {
		t.Fatal("lossless fabric dropped")
	}
}

func TestLossInjection(t *testing.T) {
	cfg := Config{RateBps: 100e9, Propagation: 0, LossProbability: 0.5}
	eng, net, _, b, ida, idb := setup(cfg)
	const n = 2000
	for i := 0; i < n; i++ {
		net.Send(&Packet{Src: ida, Dst: idb, Size: 100})
	}
	eng.Run()
	got := len(b.pkts)
	if got < n/3 || got > 2*n/3 {
		t.Fatalf("delivered %d of %d with p=0.5 loss", got, n)
	}
	if int(net.Dropped())+got != n {
		t.Fatalf("drops+delivered = %d, want %d", int(net.Dropped())+got, n)
	}
}

func TestPerNodeRateOverride(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 0}
	eng, net, _, b, ida, idb := setup(cfg)
	setNodeRate(net, idb, 4e9) // ingress at half rate: 2 ns/byte
	net.Send(&Packet{Src: ida, Dst: idb, Size: 1000})
	eng.Run()
	if want := sim.Time(1000 + 2000); b.at[0] != want {
		t.Fatalf("arrival = %v, want %v", b.at[0], want)
	}
}

func TestStreamsShareEgressFairlyEnough(t *testing.T) {
	// Two destinations from one source: both are limited by the shared
	// egress, arriving interleaved.
	cfg := Config{RateBps: 8e9, Propagation: 0}
	eng := sim.NewEngine(1)
	net := New(eng, cfg)
	src := &sink{eng: eng}
	b1, b2 := &sink{eng: eng}, &sink{eng: eng}
	idsrc := net.AttachOn(src, eng)
	id1, id2 := net.AttachOn(b1, eng), net.AttachOn(b2, eng)
	for i := 0; i < 10; i++ {
		net.Send(&Packet{Src: idsrc, Dst: id1, Size: 1000})
		net.Send(&Packet{Src: idsrc, Dst: id2, Size: 1000})
	}
	end := eng.Run()
	if len(b1.pkts) != 10 || len(b2.pkts) != 10 {
		t.Fatalf("delivered %d/%d", len(b1.pkts), len(b2.pkts))
	}
	// 20 KB over a shared 1 B/ns egress ≥ 20 µs.
	if end < 20000 {
		t.Fatalf("finished too fast: %v", end)
	}
}

// echoEP bounces every delivered packet back to its sender a few times,
// recording arrival times — cross-partition ping-pong traffic.
type echoEP struct {
	net  *Network
	id   NodeID
	eng  *sim.Engine
	log  []sim.Time
	hops int
}

func (e *echoEP) Deliver(pkt *Packet) {
	e.log = append(e.log, e.eng.Now())
	if e.hops > 0 {
		e.hops--
		e.net.Send(&Packet{Src: e.id, Dst: pkt.Src, Size: pkt.Size})
	}
}

// TestPartitionedFabricDeterministic: the same two-node exchange over a
// partitioned fabric produces identical delivery timelines for any
// worker-thread count, and matches the per-node counter aggregation.
func TestPartitionedFabricDeterministic(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 2 * sim.Microsecond}
	run := func(threads int) ([]sim.Time, []sim.Time, uint64) {
		g := sim.NewGroup(1, 2, cfg.Lookahead())
		net := NewOnGroup(g, cfg)
		a := &echoEP{net: net, eng: g.Engine(0), hops: 50}
		b := &echoEP{net: net, eng: g.Engine(1), hops: 50}
		a.id = net.AttachOn(a, g.Engine(0))
		b.id = net.AttachOn(b, g.Engine(1))
		g.Engine(0).After(0, func() {
			net.Send(&Packet{Src: a.id, Dst: b.id, Size: 1000})
		})
		g.SetThreads(threads)
		g.Run()
		return a.log, b.log, net.Delivered()
	}
	a1, b1, d1 := run(1)
	if d1 == 0 || len(b1) == 0 {
		t.Fatalf("no traffic: delivered=%d", d1)
	}
	if d1 != uint64(len(a1)+len(b1)) {
		t.Fatalf("aggregate delivered %d != %d+%d", d1, len(a1), len(b1))
	}
	for _, threads := range []int{2} {
		a2, b2, d2 := run(threads)
		if d2 != d1 || len(a2) != len(a1) || len(b2) != len(b1) {
			t.Fatalf("threads=%d diverged: delivered %d vs %d", threads, d2, d1)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("threads=%d: a[%d] = %v vs %v", threads, i, a2[i], a1[i])
			}
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("threads=%d: b[%d] = %v vs %v", threads, i, b2[i], b1[i])
			}
		}
	}
}

// sendAt schedules a send of one 1000-byte packet, tagged with id, at t.
func sendAt(eng *sim.Engine, net *Network, t sim.Time, src, dst NodeID, id int) {
	eng.At(t, func() { net.Send(&Packet{Src: src, Dst: dst, Size: 1000, Payload: id}) })
}

// checkArrivals compares a sink's delivery log with the expected
// (payload id, time) sequence.
func checkArrivals(t *testing.T, s *sink, ids []int, at []sim.Time) {
	t.Helper()
	if len(s.pkts) != len(ids) {
		t.Fatalf("delivered %d packets, want %d (%v)", len(s.pkts), len(ids), s.at)
	}
	for i := range ids {
		if got := s.pkts[i].Payload.(int); got != ids[i] || s.at[i] != at[i] {
			t.Fatalf("delivery %d: packet %d at %v, want packet %d at %v", i, got, s.at[i], ids[i], at[i])
		}
	}
}

// TestArrivalTimesUnderQueueing pins arrival times for a schedule that
// keeps more packets queued at the egress port, and in flight on the wire,
// than a port's or a node's first ring buffer holds, with sends landing
// while earlier packets are being delivered. At 1 B/ns a 1000-byte packet
// serializes in 1000 ns, and equal rates never queue at the ingress, so
// packet i leaves egress at E_i = max(send_i, E_{i-1}) + 1000 and is
// delivered at E_i + propagation + 1000.
func TestArrivalTimesUnderQueueing(t *testing.T) {
	sends := []sim.Time{0, 0, 0, 0, 0, 0, 0, 0, 0, 2500, 9000, 9100, 9200, 9300, 9400, 9500, 9600, 30000, 30000}
	for _, prop := range []sim.Time{0, 10 * sim.Microsecond} {
		eng, net, _, b, ida, idb := setup(Config{RateBps: 8e9, Propagation: prop})
		var ids []int
		var want []sim.Time
		var egress sim.Time
		for i, s := range sends {
			sendAt(eng, net, s, ida, idb, i)
			egress = max(s, egress) + 1000
			ids = append(ids, i)
			want = append(want, egress+prop+1000)
		}
		eng.Run()
		checkArrivals(t, b, ids, want)
	}
}

// TestArrivalTimesBlackholeMidQueue: a black hole drops what arrives while
// it is on; packets already queued behind the one in service still go
// through.
func TestArrivalTimesBlackholeMidQueue(t *testing.T) {
	eng, net, _, b, ida, idb := setup(Config{RateBps: 8e9, Propagation: 0})
	setNodeRate(net, idb, 4e9) // ingress at 2000 ns per packet: a queue builds
	for i := 0; i < 5; i++ {
		sendAt(eng, net, 0, ida, idb, i)
	}
	// Arrivals at 1000..5000; packet 0 is in service 1000-3000 and packet 1
	// queued behind it when the black hole opens. Only packet 2 (arriving
	// at 3000) falls in.
	eng.At(2500, func() { net.SetBlackhole(idb, true) })
	eng.At(3500, func() { net.SetBlackhole(idb, false) })
	eng.Run()
	checkArrivals(t, b, []int{0, 1, 3, 4}, []sim.Time{3000, 5000, 7000, 9000})
	if net.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", net.Dropped())
	}
}

// TestArrivalTimesPartitioned: on a partitioned network a same-partition
// hop (engine queue) and a cross-partition hop (group mailbox) from one
// sender arrive at the same analytic times for any thread count.
func TestArrivalTimesPartitioned(t *testing.T) {
	cfg := Config{RateBps: 8e9, Propagation: 2 * sim.Microsecond}
	for _, threads := range []int{1, 2} {
		g := sim.NewGroup(1, 2, cfg.Lookahead())
		net := NewOnGroup(g, cfg)
		e0, e1 := g.Engine(0), g.Engine(1)
		a, near, far := &sink{eng: e0}, &sink{eng: e0}, &sink{eng: e1}
		ida, idnear, idfar := net.AttachOn(a, e0), net.AttachOn(near, e0), net.AttachOn(far, e1)
		for i := 0; i < 3; i++ {
			sendAt(e0, net, 0, ida, idnear, 2*i)
			sendAt(e0, net, 0, ida, idfar, 2*i+1)
		}
		g.SetThreads(threads)
		g.Run()
		// Egress alternates near/far, one packet per 1000 ns; each is
		// delivered propagation + 1000 ns after it leaves.
		checkArrivals(t, near, []int{0, 2, 4}, []sim.Time{4000, 6000, 8000})
		checkArrivals(t, far, []int{1, 3, 5}, []sim.Time{5000, 7000, 9000})
	}
}

func TestSendToUnattachedNodePanics(t *testing.T) {
	_, net, _, _, ida, idb := setup(DefaultEthernet())
	for _, c := range []struct {
		src, dst NodeID
		msg      string
	}{
		{0, idb, "fabric: send from unattached node 0"},
		{-1, idb, "fabric: send from unattached node -1"},
		{ida, 3, "fabric: send to unattached node 3"},
	} {
		func() {
			defer func() {
				if r := recover(); r != c.msg {
					t.Errorf("Send(%d -> %d) panicked with %v, want %q", c.src, c.dst, r, c.msg)
				}
			}()
			net.Send(&Packet{Src: c.src, Dst: c.dst, Size: 100})
		}()
	}
}

// TestAttachOnForeignEnginePanics: a node attached on an engine outside
// the network's group would schedule its events on another clock, or post
// mail under a foreign partition index, so AttachOn refuses it. A
// partition of the network's own group is accepted.
func TestAttachOnForeignEnginePanics(t *testing.T) {
	const msg = "fabric: attach on an engine outside the network's group"
	g := sim.NewGroup(1, 2, sim.Microsecond)
	for _, c := range []struct {
		name string
		net  *Network
		eng  *sim.Engine
	}{
		{"one-partition network, another engine", New(sim.NewEngine(1), DefaultEthernet()), sim.NewEngine(1)},
		{"group network, another group's partition 1", NewOnGroup(g, DefaultEthernet()), sim.NewGroup(1, 2, sim.Microsecond).Engine(1)},
	} {
		func() {
			defer func() {
				if r := recover(); r != msg {
					t.Errorf("%s: AttachOn panicked with %v, want %q", c.name, r, msg)
				}
			}()
			c.net.AttachOn(&countSink{}, c.eng)
		}()
	}
	if id := NewOnGroup(g, DefaultEthernet()).AttachOn(&countSink{}, g.Engine(1)); id != 1 {
		t.Fatalf("AttachOn on the group's partition 1 = node %d, want 1", id)
	}
}

// TestPropagationBelowLookaheadPanics: a fabric hop shorter than its
// group's lookahead would break the conservative protocol's promise.
func TestPropagationBelowLookaheadPanics(t *testing.T) {
	g := sim.NewGroup(1, 2, 2*sim.Microsecond)
	defer func() {
		if r := recover(); r != "fabric: propagation below group lookahead" {
			t.Errorf("New panicked with %v, want the lookahead panic", r)
		}
	}()
	New(g.Engine(0), DefaultInfiniBand()) // 1 µs propagation
}

// countSink counts deliveries without retaining packets.
type countSink struct{ n int }

func (c *countSink) Deliver(*Packet) { c.n++ }

// sendDeliverRound returns a function that sends 16 packets between two
// nodes, in both directions, and runs the engine until all are delivered.
func sendDeliverRound(tb testing.TB) func() {
	eng := sim.NewEngine(1)
	net := New(eng, DefaultEthernet())
	a, b := &countSink{}, &countSink{}
	ida, idb := net.AttachOn(a, eng), net.AttachOn(b, eng)
	pkts := make([]Packet, 16)
	for i := range pkts {
		pkts[i] = Packet{Src: ida, Dst: idb, Size: 1500}
		if i%2 == 1 {
			pkts[i].Src, pkts[i].Dst = idb, ida
		}
	}
	return func() {
		before := a.n + b.n
		for i := range pkts {
			net.Send(&pkts[i])
		}
		eng.Run()
		if a.n+b.n != before+len(pkts) {
			tb.Fatalf("delivered %d of %d", a.n+b.n-before, len(pkts))
		}
	}
}

// TestSendDeliverNoAlloc: on a warm network, moving a packet through
// egress, propagation and ingress to the endpoint allocates nothing.
func TestSendDeliverNoAlloc(t *testing.T) {
	round := sendDeliverRound(t)
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("16-packet Send→Deliver round allocates %.1f, want 0", allocs)
	}
}

// BenchmarkSendDeliver times one 16-packet Send→Deliver round.
func BenchmarkSendDeliver(b *testing.B) {
	b.ReportAllocs()
	round := sendDeliverRound(b)
	round()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
