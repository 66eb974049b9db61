// HPC: a four-node ring exchange comparing the memory-registration
// strategies of §6.2 — a bounded pin-down cache (what MPI middlewares
// implement in thousands of lines) against on-demand paging (one call).
//
// Each node cycles through a working set of buffers larger than the
// pin-down cache, so the cache thrashes exactly as the paper's Table 3
// warns for coarse-grained pinning; ODP pays faults once and then runs at
// wire speed.
//
// Run with: go run ./examples/hpc
package main

import (
	"fmt"

	"npf"
)

const (
	nodes     = 4
	msgSize   = 256 << 10
	buffers   = 16 // per-node rotation (off-cache working set)
	iters     = 300
	cacheSize = 8 * msgSize // pin-down cache holds only half the rotation
)

type node struct {
	host *npf.Host
	as   *npf.AddressSpace
	next *npf.QP // to (i+1) % nodes
	prev *npf.QP // from (i-1+nodes) % nodes
	pdc  *npf.PinDownCache
	idx  int
}

func (n *node) buf() npf.VAddr {
	b := npf.VAddr(n.idx%buffers) * msgSize
	n.idx++
	return b
}

// register pays the pin-down cache cost for buf (if caching) and returns
// the time it took.
func (n *node) register(buf npf.VAddr, also *npf.QP) npf.Time {
	if n.pdc == nil {
		return 0
	}
	cost, err := n.pdc.Acquire(buf, msgSize)
	if err != nil {
		panic(err)
	}
	if also != nil {
		// Real verbs MRs span the protection domain; our two QPs were
		// created with separate domains, so mirror the registration.
		also.Domain.Map(buf.Page(), msgSize/npf.PageSize)
	}
	return cost
}

func run(usePinCache bool) (npf.Time, uint64) {
	cluster := npf.NewCluster(npf.WithSeed(3), npf.WithFabric(npf.InfiniBandFabric()))
	ring := make([]*node, nodes)
	for i := range ring {
		h, err := cluster.TryNewHost(fmt.Sprintf("node%d", i), npf.WithRAM(32<<30))
		if err != nil {
			panic(err)
		}
		as := h.NewProcess("rank")
		as.MapBytes(buffers * msgSize)
		ring[i] = &node{host: h, as: as}
	}
	for i := range ring {
		j := (i + 1) % nodes
		a, b := ring[i], ring[j]
		qpA, qpB := a.host.OpenQP(a.as), b.host.OpenQP(b.as)
		npf.ConnectQPs(qpA, qpB)
		a.next, b.prev = qpA, qpB
	}
	if usePinCache {
		for _, n := range ring {
			n.pdc = npf.NewPinDownCache(n.as, n.next.Domain, cacheSize)
		}
	}

	var end npf.Time
	iter := 0
	received := 0
	var round func()
	round = func() {
		if iter >= iters {
			end = cluster.Eng.Now()
			return
		}
		iter++
		received = 0
		for _, n := range ring {
			n := n
			rbuf := n.buf()
			cost := n.register(rbuf, n.prev)
			n.prev.OnRecv = func(npf.RecvCompletion) {
				received++
				if received == nodes {
					round()
				}
			}
			cluster.Eng.After(cost, func() {
				n.prev.PostRecv(npf.RecvWQE{ID: int64(iter), Addr: rbuf, Len: msgSize})
			})
		}
		for _, n := range ring {
			n := n
			sbuf := n.buf()
			touch, err := n.as.Touch(sbuf, msgSize, true) // produce the data
			if err != nil {
				panic(err)
			}
			cost := touch.Cost + n.register(sbuf, nil)
			cluster.Eng.After(cost, func() {
				n.next.PostSend(npf.SendWQE{ID: int64(iter), Laddr: sbuf, Len: msgSize})
			})
		}
	}
	round()
	cluster.Eng.Run()
	var evictions uint64
	if ring[0].pdc != nil {
		evictions = ring[0].pdc.Evictions.N
	}
	return end, evictions
}

func main() {
	fmt.Printf("ring exchange: %d nodes, %d KiB messages, %d-buffer rotation, %d iterations\n\n",
		nodes, msgSize>>10, buffers, iters)
	pin, evictions := run(true)
	odp, _ := run(false)
	fmt.Printf("pin-down cache (%d KiB bound): %10v  (%d page evictions per node)\n",
		cacheSize>>10, pin, evictions)
	fmt.Printf("on-demand paging:              %10v\n", odp)
	fmt.Printf("\nthe cache holds half the working set, so every buffer reuse re-pins\n")
	fmt.Printf("and re-registers (map/unmap churn); ODP faults each buffer once and\n")
	fmt.Printf("stays warm. with a big-enough cache the two tie — at the price of\n")
	fmt.Printf("permanently locked memory (Table 3's coarse-grained pinning tradeoff).\n")
}
