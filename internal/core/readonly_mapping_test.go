package core

import (
	"testing"

	"npf/internal/mem"
	"npf/internal/rc"
)

// DESIGN X2: a fault resolved with read intent maps its pages read-only,
// and a later DMA write to them faults again and upgrades the mapping.

func TestReadOnlyMappingUpgradesOnDMAWrite(t *testing.T) {
	// A buffer first used as a SEND source is resolved read-only; reusing
	// it as a receive buffer must fault again (permission) and upgrade.
	e := newIBEnv(t, 1<<30, nil)
	e.asB.TouchPages(64, 4, true)
	e.b.Domain.Map(64, 4) // receiver warm for the first message

	received := 0
	e.b.OnRecv = func(rc.RecvCompletion) { received++ }
	e.b.PostRecv(rc.RecvWQE{ID: 1, Addr: mem.PageNum(64).Base(), Len: mem.PageSize})
	// Cold send buffer at page 0: resolved with read intent.
	e.a.PostSend(rc.SendWQE{ID: 1, Laddr: 0, Len: 4096})
	e.eng.Run()
	if received != 1 {
		t.Fatal("first message lost")
	}
	if !e.a.Domain.Present(0) || e.a.Domain.Writable(0) {
		t.Fatalf("send buffer should be mapped read-only: present=%v writable=%v",
			e.a.Domain.Present(0), e.a.Domain.Writable(0))
	}

	// Now the same page becomes a receive target on A.
	faultsBefore := e.a.HCA().Faults.N
	gotBack := 0
	e.a.OnRecv = func(rc.RecvCompletion) { gotBack++ }
	e.a.PostRecv(rc.RecvWQE{ID: 2, Addr: 0, Len: mem.PageSize})
	e.b.PostSend(rc.SendWQE{ID: 2, Laddr: mem.PageNum(64).Base(), Len: 4096})
	e.eng.Run()
	if gotBack != 1 {
		t.Fatal("reverse message lost")
	}
	if e.a.HCA().Faults.N <= faultsBefore {
		t.Fatal("DMA write to read-only mapping must fault (permission upgrade)")
	}
	if !e.a.Domain.Writable(0) {
		t.Fatal("mapping not upgraded to writable")
	}
}
