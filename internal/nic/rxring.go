package nic

import (
	"fmt"

	"npf/internal/fabric"
	"npf/internal/mem"
)

// Descriptor is one receive descriptor: a buffer in the IOuser's address
// space.
type Descriptor struct {
	Buffer mem.VAddr
	Len    int
}

type rxSlot struct {
	desc    Descriptor
	posted  bool
	filled  bool
	payload any
	size    int
}

// RxRing is the hardware receive ring of one IOchannel, implementing the
// paper's Figure 6 state machine. All indexes (head, tail, ...) are
// absolute (monotonically increasing); slot storage wraps modulo size.
//
//   - tail: descriptors posted by the IOuser (producer index).
//   - head: first descriptor not yet consumable by the IOuser — it points
//     at the oldest unresolved rNPF while faults are pending.
//   - headOffset: packets stored or parked beyond head while faults are
//     pending; head+headOffset is where the next packet lands.
//   - bitmap/bmIndex: which of the parked entries still await resolution;
//     bmIndex is the bitmap position corresponding to head.
type RxRing struct {
	ch     *Channel
	size   int
	bmSize int
	policy FaultPolicy

	slots      []rxSlot
	tail       int64
	head       int64
	headOffset int64
	bmIndex    int64
	bitmap     []bool

	reported   int64
	intPending bool
	// intr is the RX interrupt (interrupt), bound once so raising it
	// creates no closure.
	intr func()

	// inflight tracks descriptor indexes whose fault was already reported
	// and not yet resolved — the firmware bitmap optimization (§4) that
	// suppresses duplicate reports. Used by PolicyDrop, where the ring
	// state does not otherwise remember the fault.
	inflight map[int64]bool

	tailWatch func()
}

func newRxRing(ch *Channel, size, bmSize int, policy FaultPolicy) *RxRing {
	r := &RxRing{
		ch:       ch,
		size:     size,
		bmSize:   bmSize,
		policy:   policy,
		slots:    make([]rxSlot, size),
		bitmap:   make([]bool, bmSize),
		inflight: make(map[int64]bool),
	}
	r.intr = r.interrupt
	return r
}

// Size returns the ring's entry count.
func (r *RxRing) Size() int { return r.size }

// Posted reports how many descriptors are currently posted and unconsumed.
func (r *RxRing) Posted() int { return int(r.tail - r.reported) }

// PendingFaults reports parked packets awaiting resolution.
func (r *RxRing) PendingFaults() int64 { return r.headOffset }

func (r *RxRing) slot(idx int64) *rxSlot { return &r.slots[idx%int64(r.size)] }

// Tail returns the absolute producer index (descriptors posted so far).
func (r *RxRing) Tail() int64 { return r.tail }

// DescriptorAt returns the descriptor at absolute index idx, if posted.
func (r *RxRing) DescriptorAt(idx int64) (Descriptor, bool) {
	if idx < r.reported || idx >= r.tail {
		return Descriptor{}, false
	}
	return r.slot(idx).desc, true
}

// PostRx posts receive descriptors. The IOuser may keep at most size
// descriptors outstanding; exceeding that is a stack bug and panics.
func (r *RxRing) PostRx(descs ...Descriptor) {
	for _, d := range descs {
		if r.tail-r.reported >= int64(r.size) {
			panic(fmt.Sprintf("nic: %s posted beyond ring size %d", r.ch.Name, r.size))
		}
		s := r.slot(r.tail)
		*s = rxSlot{desc: d, posted: true}
		r.tail++
	}
	if r.tailWatch != nil && len(descs) > 0 {
		r.tailWatch()
	}
}

// WatchTail installs fn to run whenever the IOuser posts descriptors; the
// backup-ring resolver uses this to wake up when room appears (§5 "T asks
// the NIC to raise an interrupt whenever the IOuser changes the tail").
// A nil fn clears the watch.
func (r *RxRing) WatchTail(fn func()) { r.tailWatch = fn }

// recv is the paper's Figure 6 recv(): store pkt at head+headOffset, or
// park it in the backup ring, or drop it.
func (r *RxRing) recv(pkt *fabric.Packet) {
	dev := r.ch.Dev
	idx := r.head + r.headOffset
	if idx < r.tail { // a descriptor is posted at the target index
		s := r.slot(idx)
		if r.ch.Domain.Blocked(s.desc.Buffer, pkt.Size) {
			// Guest-table protection violation (§2.4): not an NPF — the
			// IOprovider cannot make this access legal. Drop.
			dev.RxDroppedProtect.Inc()
			return
		}
		_, missing := r.ch.Domain.TranslateAccess(s.desc.Buffer, pkt.Size, true)
		if len(missing) == 0 {
			// Store in the IOuser ring.
			r.ch.dmaTouch(s.desc.Buffer, pkt.Size, true)
			s.filled = true
			s.payload = pkt.Payload
			s.size = pkt.Size
			dev.RxDelivered.Inc()
			if r.headOffset > 0 {
				r.headOffset++
			} else {
				r.head++
				r.raiseRxInterrupt()
			}
			return
		}
		// rNPF.
		switch r.policy {
		case PolicyPinned:
			panic(fmt.Sprintf("nic: rNPF on pinned ring %s pages %v", r.ch.Name, missing))
		case PolicyDrop:
			dev.RxDroppedFault.Inc()
			if r.inflight[idx] && !dev.Cfg.DisableInflightBitmap {
				return // firmware already reported this descriptor's fault
			}
			r.inflight[idx] = true
			entry := RxNPFEntry{Channel: r.ch, Index: idx, Missing: missing, Start: dev.Eng.Now(), Fault: dev.MintFault()}
			// The drop path goes through the slow firmware error path.
			lat := dev.FaultLatency()
			dev.Tracer.FaultMinted(entry.Fault, "rx-drop", entry.Start, int64(pkt.Src), idx, len(missing))
			dev.Eng.After(lat, func() {
				dev.sink.HandleRxNPF([]RxNPFEntry{entry})
			})
			return
		case PolicyBackup:
			r.parkInBackup(pkt, idx, missing)
			return
		}
	}
	// No descriptor posted at the target index.
	if r.policy == PolicyBackup {
		// Figure 6 treats ring-full like a fault: park it, bounded by
		// bm_size, and let the resolver wait for the IOuser to post.
		r.parkInBackup(pkt, idx, nil)
		return
	}
	dev.RxDroppedNoBuf.Inc()
}

// parkInBackup implements Figure 6's backup-ring arm.
func (r *RxRing) parkInBackup(pkt *fabric.Packet, idx int64, missing []mem.PageNum) {
	dev := r.ch.Dev
	if r.headOffset >= int64(r.bmSize) || !dev.Backup.hasRoom() {
		dev.RxDroppedFault.Inc() // otherwise drop packet
		return
	}
	bitIndex := r.bmIndex + r.headOffset
	r.bitmap[bitIndex%int64(r.bmSize)] = true
	r.headOffset++
	dev.RxToBackup.Inc()
	e := RxNPFEntry{
		Channel:  r.ch,
		Index:    idx,
		BitIndex: bitIndex,
		Missing:  missing,
		Packet:   pkt,
		Start:    dev.Eng.Now(),
		Fault:    dev.MintFault(),
	}
	name := "rx-backup"
	if missing == nil {
		name = "rx-ringfull" // parked for ring room, not for paging
	}
	dev.Tracer.FaultMinted(e.Fault, name, e.Start, int64(pkt.Src), idx, len(missing))
	dev.Backup.store(e)
}

// FillResolved is called by the driver after it faulted the buffer in and
// copied the parked packet into descriptor idx (Figure 5 step 4).
func (r *RxRing) FillResolved(idx int64, pkt *fabric.Packet) {
	s := r.slot(idx)
	if !s.posted {
		panic(fmt.Sprintf("nic: FillResolved(%d) on unposted descriptor of %s", idx, r.ch.Name))
	}
	r.ch.dmaTouch(s.desc.Buffer, pkt.Size, true)
	s.filled = true
	s.payload = pkt.Payload
	s.size = pkt.Size
	r.ch.Dev.RxDelivered.Inc()
}

// ResolveRNPF is the paper's resolve_rNPFs(): clear the bitmap bit and
// advance head past consecutively resolved entries, then report newly
// visible packets.
func (r *RxRing) ResolveRNPF(bitIndex int64) {
	r.bitmap[bitIndex%int64(r.bmSize)] = false
	for r.headOffset > 0 && !r.bitmap[r.bmIndex%int64(r.bmSize)] {
		r.headOffset--
		r.head++
		r.bmIndex++
	}
	r.raiseRxInterrupt()
}

// ClearInflight tells the firmware a drop-policy fault was resolved so new
// faults on the descriptor are reported again.
func (r *RxRing) ClearInflight(idx int64) { delete(r.inflight, idx) }

// raiseRxInterrupt delivers completions [reported, head) to the IOuser
// after the interrupt latency, coalescing bursts into one callback.
func (r *RxRing) raiseRxInterrupt() {
	if r.intPending || r.reported >= r.head {
		return
	}
	r.intPending = true
	r.ch.Dev.Eng.After(r.ch.Dev.Cfg.IntLatency, r.intr)
}

// interrupt is the coalesced RX interrupt. The batch is built in the
// device's one completion buffer, which every channel's interrupt reuses:
// interrupts on one engine never nest.
func (r *RxRing) interrupt() {
	r.intPending = false
	dev := r.ch.Dev
	comps := dev.rxBatch[:0]
	for r.reported < r.head {
		s := r.slot(r.reported)
		if !s.filled {
			panic(fmt.Sprintf("nic: reporting unfilled slot %d on %s", r.reported, r.ch.Name))
		}
		comps = append(comps, RxCompletion{Index: r.reported, Size: s.size, Payload: s.payload})
		*s = rxSlot{}
		r.reported++
	}
	dev.rxBatch = comps
	if r.ch.rxHandler != nil {
		r.ch.rxHandler.RxComplete(r.ch, comps)
	}
	clear(comps) // drop the payloads until the buffer is reused
}
