package rc

import (
	"testing"

	"npf/internal/mem"
	"npf/internal/sim"
)

func TestSharedDomainAcrossQPs(t *testing.T) {
	e := newRCEnv(t, nil)
	// A second QP pair between the same hosts sharing the first pair's
	// domains (one protection domain per process, the verbs model).
	a2 := e.a.hca.NewQPShared(e.asA, e.a.Domain)
	b2 := e.b.hca.NewQPShared(e.asB, e.b.Domain)
	Connect(a2, b2)
	if a2.Domain != e.a.Domain {
		t.Fatal("domain not shared")
	}
	warm(e.a, 0, 1) // warms the shared domain
	warm(e.b, 0, 1)
	var got []RecvCompletion
	b2.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	b2.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	a2.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 1000, Payload: "shared"})
	e.eng.Run()
	if len(got) != 1 {
		t.Fatalf("recv = %+v", got)
	}
	if e.a.hca.Faults.N+e.b.hca.Faults.N != 0 {
		t.Fatal("shared-domain warm path faulted")
	}
}

func TestManyMessagesBothDirections(t *testing.T) {
	e := newRCEnv(t, nil)
	warm(e.a, 0, 32)
	warm(e.b, 0, 32)
	var aGot, bGot int
	e.a.OnRecv = func(RecvCompletion) { aGot++ }
	e.b.OnRecv = func(RecvCompletion) { bGot++ }
	for i := 0; i < 50; i++ {
		e.a.PostRecv(RecvWQE{ID: int64(i), Addr: 0, Len: mem.PageSize})
		e.b.PostRecv(RecvWQE{ID: int64(i), Addr: 0, Len: mem.PageSize})
		e.a.PostSend(SendWQE{ID: int64(i), Laddr: 0, Len: 2000})
		e.b.PostSend(SendWQE{ID: int64(i), Laddr: 0, Len: 2000})
	}
	e.eng.Run()
	if aGot != 50 || bGot != 50 {
		t.Fatalf("a=%d b=%d", aGot, bGot)
	}
}

func TestZeroLengthSend(t *testing.T) {
	e := newRCEnv(t, nil)
	warm(e.b, 0, 1)
	var got []RecvCompletion
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	e.b.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 0, Payload: "barrier"})
	e.eng.Run()
	if len(got) != 1 || got[0].Payload != "barrier" {
		t.Fatalf("recv = %+v", got)
	}
}

func TestInterleavedSendAndRead(t *testing.T) {
	// A send stream and an RDMA read in flight on the same QP pair.
	e := newRCEnv(t, nil)
	warm(e.a, 0, 32)
	warm(e.b, 0, 64)
	var recvs int
	readDone := false
	e.b.OnRecv = func(RecvCompletion) { recvs++ }
	e.a.OnReadComplete = func(int64) { readDone = true }
	for i := 0; i < 10; i++ {
		e.b.PostRecv(RecvWQE{ID: int64(i), Addr: 0, Len: 16 << 10})
		e.a.PostSend(SendWQE{ID: int64(i), Laddr: 0, Len: 16 << 10})
	}
	e.a.PostRead(ReadWQE{ID: 99, Laddr: 16 << 12, Raddr: mem.PageNum(32).Base(), Len: 64 << 10})
	e.eng.Run()
	if recvs != 10 || !readDone {
		t.Fatalf("recvs=%d readDone=%v", recvs, readDone)
	}
}

func TestRNRNackLatencyBound(t *testing.T) {
	// A cold single-page receive: the message must land within a few RNR
	// rounds (fault service ≈ 260 µs, RNR timeout 280 µs).
	e := newRCEnv(t, nil)
	warm(e.a, 0, 1)
	var at sim.Time
	e.b.OnRecv = func(RecvCompletion) { at = e.eng.Now() }
	e.b.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 4096})
	e.eng.Run()
	if at == 0 || at > 2*sim.Millisecond {
		t.Fatalf("cold recv took %v, want within ~2 RNR rounds", at)
	}
}

func TestReadUnknownReqIgnored(t *testing.T) {
	e := newRCEnv(t, nil)
	warm(e.b, 0, 1)
	// A stray read response must not crash or corrupt state.
	pkt := e.b.hca.take(pktReadResp, e.b.QPN, e.a.QPN)
	pkt.ReqID, pkt.ChunkLen = 1234, 100
	e.b.hca.post(pkt, e.a.hca.Node, 100)
	e.eng.Run()
}
