// Quickstart: send an RDMA message into completely cold (never touched,
// never pinned) memory and watch the NIC take network page faults instead
// of requiring pinning.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"npf"
)

func main() {
	// A two-node InfiniBand cluster, like the paper's Connect-IB testbed.
	cluster := npf.NewCluster(npf.WithSeed(42), npf.WithFabric(npf.InfiniBandFabric()))
	alice := cluster.NewHost("alice")
	bob := cluster.NewHost("bob")

	// Each host runs one IOuser process. Nothing is pinned, ever: the
	// address spaces are plain demand-paged virtual memory.
	src := alice.NewProcess("sender")
	src.MapBytes(1 << 20)
	dst := bob.NewProcess("receiver")
	dst.MapBytes(1 << 20)

	// ODP queue pairs: registration is a single call; presence is the
	// driver's problem from here on.
	qpA := alice.OpenQP(src)
	qpB := bob.OpenQP(dst)
	npf.ConnectQPs(qpA, qpB)

	var deliveredAt npf.Time
	qpB.OnRecv = func(c npf.RecvCompletion) {
		deliveredAt = cluster.Eng.Now()
		fmt.Printf("received %q (%d bytes) at t=%v\n", c.Payload, c.Len, deliveredAt)
	}

	// Post a receive into cold memory and send from cold memory: the send
	// side faults locally (the QP suspends until the driver resolves it),
	// and the receive side faults remotely (the firmware RNR-NACKs the
	// sender and RC retransmission recovers the data).
	qpB.PostRecv(npf.RecvWQE{ID: 1, Addr: 0, Len: 64 << 10})
	qpA.PostSend(npf.SendWQE{ID: 1, Laddr: 0, Len: 64 << 10, Payload: "hello, ODP"})

	cluster.Eng.Run()

	fmt.Printf("\nsender-side NPFs resolved:   %d\n", alice.Driver.NPFs.N)
	fmt.Printf("receiver-side NPFs resolved: %d\n", bob.Driver.NPFs.N)
	fmt.Printf("RNR NACKs sent by receiver:  %d\n", qpB.HCA().RNRNacks.N)
	fmt.Printf("mean NPF service time:       %.0f µs (paper: ≈220 µs for 4 KB)\n",
		bob.Driver.Hist.Total.Mean())
	fmt.Printf("cold 64 KB message latency:  %v\n", deliveredAt)
	fmt.Println("\nno byte of memory was ever pinned.")
}
