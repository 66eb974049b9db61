// Storage: a remote-memory dataset served over RDMA reads, showing the two
// §6.1 storage benefits of NPFs: only the touched part of a huge sparse
// region ever consumes physical memory, and an RDMA-read initiator that
// faults mid-stream recovers by rewinding (the paper's §4 read-rewind
// flow), with zero pinning on either side.
//
// Run with: go run ./examples/storage
package main

import (
	"fmt"

	"npf"
)

func main() {
	cluster := npf.NewCluster(npf.WithSeed(11), npf.WithFabric(npf.InfiniBandFabric()))
	serverHost := cluster.NewHost("dataserver", npf.WithRAM(16<<30))
	clientHost := cluster.NewHost("analytics", npf.WithRAM(4<<30))

	// The data server exposes a 4 GiB dataset region. With ODP it can be
	// registered wholesale — no pinning, no memory consumed up front.
	srv := serverHost.NewProcess("dataset")
	const datasetBytes = 4 << 30
	srv.MapBytes(datasetBytes)

	cli := clientHost.NewProcess("reader")
	cli.MapBytes(256 << 20)

	qpS := serverHost.OpenQP(srv)
	qpC := clientHost.OpenQP(cli)
	npf.ConnectQPs(qpS, qpC)

	fmt.Printf("dataset registered: %d GiB virtual, %d bytes resident\n",
		datasetBytes>>30, srv.ResidentBytes())

	// The analytics client RDMA-reads 32 scattered 1 MiB chunks. Both the
	// remote source pages (server side) and the local destination pages
	// (client side) start cold.
	const chunk = 1 << 20
	const chunks = 32
	completed := 0
	qpC.OnReadComplete = func(id int64) {
		completed++
		if completed < chunks {
			issueRead(qpC, completed)
		}
	}
	issueRead(qpC, 0)
	cluster.Eng.Run()

	fmt.Printf("\nreads completed:            %d × %d KiB\n", completed, chunk>>10)
	fmt.Printf("server resident afterwards: %d MiB of %d GiB (%.2f%%)\n",
		srv.ResidentBytes()>>20, datasetBytes>>30,
		100*float64(srv.ResidentBytes())/float64(datasetBytes))
	fmt.Printf("server-side NPFs:           %d (read-responder faults)\n", serverHost.Driver.NPFs.N)
	fmt.Printf("client-side NPFs:           %d\n", clientHost.Driver.NPFs.N)
	fmt.Printf("read rewinds (initiator faulted mid-stream): %d\n", qpC.HCA().ReadRewinds.N)
	fmt.Println("\nwith pinning, serving this dataset would have locked 4 GiB up front.")
}

// issueRead fetches chunk i of the remote dataset into a rotating local
// window. Chunks are scattered across the dataset (stride 113 MiB) so each
// touches fresh remote pages.
func issueRead(qp *npf.QP, i int) {
	const chunk = 1 << 20
	remote := npf.VAddr(i) * 113 << 20
	local := npf.VAddr(i%16) * chunk
	qp.PostRead(npf.ReadWQE{ID: int64(i), Laddr: local, Raddr: remote, Len: chunk})
}
