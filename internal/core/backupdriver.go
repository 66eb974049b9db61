package core

import (
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/sim"
	"npf/internal/trace"
)

// pendingRx is one queued receive-fault entry plus how many resolution
// attempts it has already burned (OOM backoffs, injected resolver timeouts,
// re-resolutions after a racing reclaim) — the counter behind the backup
// resolver's exponential backoff and DegradeToPinned escape hatch.
type pendingRx struct {
	e       nic.RxNPFEntry
	attempt int
}

// chanState is the per-IOuser driver state of §5: the software queue q of
// faulting packets and the resolver thread T that merges them back into the
// IOuser's ring. T is modelled as a sequential event chain — one packet in
// service at a time, like a kernel thread.
type chanState struct {
	d    *Driver
	ch   *nic.Channel
	q    []pendingRx
	busy bool
	// waiting marks that T is blocked until the IOuser posts descriptors
	// (the tail interrupt the paper's T asks the NIC for).
	waiting bool
}

// pump services the head of q. It reschedules itself after each resolution
// and parks on the ring's tail watch when the IOuser has not yet posted the
// target descriptor.
func (st *chanState) pump() {
	if st.busy || st.waiting || len(st.q) == 0 {
		return
	}
	p := st.q[0]
	e := p.e
	ring := st.ch.Rx

	// T first blocks until there is room in the target IOuser ring.
	if e.Index >= ring.Tail() {
		st.waiting = true
		ring.WatchTail(func() {
			ring.WatchTail(nil)
			st.waiting = false
			st.pump()
		})
		return
	}
	st.busy = true
	st.q = st.q[1:]

	// Ensure the descriptor and buffer(s) are present and the IOMMU page
	// tables reflect that. Re-translate now: an earlier resolution may
	// already have covered these pages.
	desc, ok := ring.DescriptorAt(e.Index)
	var pages []mem.PageNum
	if ok {
		_, pages = st.ch.Domain.TranslateAccess(desc.Buffer, desc.Len, true)
	}
	if st.d.Cfg.PrefaultRing {
		pages = append(pages, st.d.prefaultPages(st.ch)...)
	}
	var copyCost sim.Time
	if e.Packet != nil {
		// Copying the parked packet into the IOuser buffer is CPU work.
		copyCost = sim.Time(int64(e.Packet.Size) * int64(sim.Second) / st.d.Cfg.MemcpyBps)
	}
	if e.Packet != nil && p.attempt == 0 {
		// Backup-ring residency of the causal record: park to service start,
		// when the packet stops being "parked" (requeued attempts accrue to
		// the retry stages instead).
		st.d.tr.FaultStageAt(e.Fault, trace.FSParked, e.Start, st.d.Eng.Now()-e.Start, e.Index, e.BitIndex)
	}
	st.d.serveFault(st.ch.AS, st.ch.Domain, pages, true, e.Start, 0, copyCost, e.Fault, p.attempt,
		func() {
			if e.Packet != nil {
				// The OS may have reclaimed the buffer again while T
				// worked (its copy would refault): resolve once more.
				if desc, ok := ring.DescriptorAt(e.Index); ok {
					if _, missing := st.ch.Domain.TranslateAccess(desc.Buffer, desc.Len, true); len(missing) > 0 {
						st.busy = false
						st.q = append([]pendingRx{{e: e, attempt: p.attempt + 1}}, st.q...)
						st.pump()
						return
					}
				}
				ring.FillResolved(e.Index, e.Packet)
				ring.ResolveRNPF(e.BitIndex)
			} else {
				ring.ClearInflight(e.Index)
			}
			// The receive flow is unblocked now: close the causal record.
			st.d.tr.FaultDone(e.Fault, st.d.Eng.Now())
			st.busy = false
			st.pump()
		},
		func() {
			// Resolution could not complete right now (OOM after reclaim or
			// an injected resolver timeout): requeue and retry with a bumped
			// attempt count; the packet stays parked (bounded by the backup
			// ring, as in hardware).
			st.busy = false
			st.q = append([]pendingRx{{e: e, attempt: p.attempt + 1}}, st.q...)
			st.pump()
		})
}
