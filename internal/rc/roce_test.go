package rc

import (
	"testing"

	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/sim"
)

// newRoCEEnv builds a QP pair over a lossy 40 Gb/s Ethernet fabric.
func newRoCEEnv(t *testing.T, lossProb float64) *rcEnv {
	t.Helper()
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.Config{
		RateBps:         40e9,
		Propagation:     2 * sim.Microsecond,
		LossProbability: lossProb,
	})
	cfg := DefaultConfig()
	cfg.RetxTimeout = 4 * sim.Millisecond // RoCE: the tighter timeout plus sequence NAKs cover loss
	cfg.FirmwareJitterSigma = 0
	m := mem.NewMachine(eng, 8<<30)
	hcaA := NewHCA(eng, net, cfg)
	hcaB := NewHCA(eng, net, cfg)
	e := &rcEnv{eng: eng, m: m, sinkA: &testSink{}, sinkB: &testSink{}}
	hcaA.SetFaultSink(e.sinkA)
	hcaB.SetFaultSink(e.sinkB)
	e.asA = m.NewAddressSpace("a", nil)
	e.asA.MapBytes(256 << 20)
	e.asB = m.NewAddressSpace("b", nil)
	e.asB.MapBytes(256 << 20)
	e.a = hcaA.NewQP(e.asA)
	e.b = hcaB.NewQP(e.asB)
	Connect(e.a, e.b)
	return e
}

func TestRoCELossRecovery(t *testing.T) {
	e := newRoCEEnv(t, 0.02)
	warm(e.a, 0, 32)
	warm(e.b, 0, 32)
	var got []RecvCompletion
	var lastAt sim.Time
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c); lastAt = e.eng.Now() }
	const n = 100
	for i := 0; i < n; i++ {
		e.b.PostRecv(RecvWQE{ID: int64(i), Addr: 0, Len: 64 << 10})
		e.a.PostSend(SendWQE{ID: int64(i), Laddr: 0, Len: 64 << 10, Payload: i})
	}
	e.eng.Run()
	if len(got) != n {
		t.Fatalf("delivered %d/%d under 2%% loss", len(got), n)
	}
	for i, c := range got {
		if c.Payload.(int) != i {
			t.Fatalf("out of order at %d", i)
		}
	}
	if e.a.hca.Retransmits.N == 0 {
		t.Fatal("no retransmissions under loss")
	}
	// Sequence NAKs make recovery fast: far under a retransmission-timeout
	// regime (100 × 64 KB at 40 Gb/s ≈ 1.3 ms wire time; allow generous
	// slack for recovery rounds, still well below many 4 ms RTOs).
	if lastAt > 60*sim.Millisecond {
		t.Fatalf("recovery too slow: %v (timeout-driven instead of NAK-driven?)", lastAt)
	}
}

func TestRoCESeqNackFasterThanTimeoutOnly(t *testing.T) {
	run := func(cfgTweak func(*Config)) sim.Time {
		eng := sim.NewEngine(5)
		net := fabric.New(eng, fabric.Config{
			RateBps: 40e9, Propagation: 2 * sim.Microsecond, LossProbability: 0.03,
		})
		cfg := DefaultConfig()
		cfg.RetxTimeout = 4 * sim.Millisecond
		cfg.FirmwareJitterSigma = 0
		if cfgTweak != nil {
			cfgTweak(&cfg)
		}
		m := mem.NewMachine(eng, 8<<30)
		hcaA, hcaB := NewHCA(eng, net, cfg), NewHCA(eng, net, cfg)
		hcaA.SetFaultSink(&testSink{})
		hcaB.SetFaultSink(&testSink{})
		asA := m.NewAddressSpace("a", nil)
		asA.MapBytes(64 << 20)
		asB := m.NewAddressSpace("b", nil)
		asB.MapBytes(64 << 20)
		a, b := hcaA.NewQP(asA), hcaB.NewQP(asB)
		Connect(a, b)
		warm(a, 0, 32)
		warm(b, 0, 32)
		var lastAt sim.Time
		got := 0
		b.OnRecv = func(RecvCompletion) { got++; lastAt = eng.Now() }
		for i := 0; i < 60; i++ {
			b.PostRecv(RecvWQE{ID: int64(i), Addr: 0, Len: 64 << 10})
			a.PostSend(SendWQE{ID: int64(i), Laddr: 0, Len: 64 << 10})
		}
		eng.Run()
		if got != 60 {
			return -1
		}
		return lastAt
	}
	withNack := run(nil)
	if withNack < 0 {
		t.Fatal("NAK run did not complete")
	}
	// The NAK machinery is part of the receiver; emulate "timeout only" by
	// an enormous... there is no switch, so instead check the absolute
	// bound: with 3% loss ≈ 30 lost packets, timeout-only recovery would
	// cost ≥ 30 × 4 ms = 120 ms.
	if withNack > 40*sim.Millisecond {
		t.Fatalf("NAK recovery took %v", withNack)
	}
}

func TestRoCEColdReceiveWithLoss(t *testing.T) {
	// NPFs and genuine loss interleave: RNR NACKs handle the faults,
	// sequence NAKs the losses, and everything still arrives in order.
	e := newRoCEEnv(t, 0.01)
	warm(e.a, 0, 64)
	var got []RecvCompletion
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	const n = 40
	for i := 0; i < n; i++ {
		// Each message into a fresh cold 4-page buffer.
		e.b.PostRecv(RecvWQE{ID: int64(i), Addr: mem.VAddr(i*4) * mem.PageSize, Len: 16 << 10})
		e.a.PostSend(SendWQE{ID: int64(i), Laddr: 0, Len: 16 << 10, Payload: i})
	}
	e.eng.Run()
	if len(got) != n {
		t.Fatalf("delivered %d/%d", len(got), n)
	}
	for i, c := range got {
		if c.Payload.(int) != i {
			t.Fatalf("out of order at %d", i)
		}
	}
	if e.b.hca.RNRNacks.N == 0 {
		t.Fatal("expected RNR NACKs from cold buffers")
	}
}
