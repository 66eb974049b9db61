package core

import (
	"testing"

	"npf/internal/iommu"
	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/sim"
)

// §2.4: guest-table protection is orthogonal to and composes with the
// IOprovider's NPF support — strict protection for the IOuser, canonical
// memory optimizations for the IOprovider, simultaneously.

func TestGuestTableComposesWithODP(t *testing.T) {
	e := newIBEnv(t, 1<<30, nil)
	guest := iommu.NewGuestTable()
	e.b.Domain.SetGuestTable(guest)

	received := 0
	e.b.OnRecv = func(rc.RecvCompletion) { received++ }

	// 1. Receive into a guest-blocked buffer: dropped, no NPF, no
	// delivery — the sender keeps retrying into a black hole.
	e.b.PostRecv(rc.RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.asA.TouchPages(0, 4, true)
	e.a.Domain.Map(0, 4)
	e.a.PostSend(rc.SendWQE{ID: 1, Laddr: 0, Len: 4096})
	e.eng.RunUntil(50 * sim.Millisecond)
	if received != 0 {
		t.Fatal("guest-blocked receive was delivered")
	}
	if e.b.HCA().ProtectionDrops.N == 0 {
		t.Fatal("protection drop not counted")
	}
	if e.drv.NPFs.N != 0 {
		t.Fatal("protection violation must not raise NPFs")
	}

	// 2. The IOuser grants access; ODP then demand-pages the (still cold)
	// buffer through the normal NPF flow, and the retransmission lands.
	guest.Allow(0, 1)
	e.eng.Run()
	if received != 1 {
		t.Fatalf("received %d after grant", received)
	}
	if e.drv.NPFs.N == 0 {
		t.Fatal("granted cold buffer should fault through ODP")
	}
}
