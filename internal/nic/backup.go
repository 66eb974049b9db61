package nic

// defaultBackupEntries sizes the IOprovider's pinned backup ring. The paper
// keeps it "small": it only needs to absorb packets for the fault-resolution
// window, because the driver drains it promptly (interrupt coalescing +
// NAPI-style polling).
const defaultBackupEntries = 256

// BackupRing is the device side of the paper's §5 design: a single pinned
// ring owned by the IOprovider into which the NIC steers packets that
// cannot be stored in their IOuser ring. Entries carry the NIC-added
// metadata (channel, target index, bitmap index) that lets the driver merge
// them back.
type BackupRing struct {
	dev        *Device
	size       int
	queue      []RxNPFEntry
	intPending bool
}

func newBackupRing(dev *Device, size int) *BackupRing {
	return &BackupRing{dev: dev, size: size}
}

// Len reports entries awaiting the driver.
func (b *BackupRing) Len() int { return len(b.queue) }

func (b *BackupRing) hasRoom() bool { return len(b.queue) < b.size }

// store appends an entry and raises the (coalesced) backup interrupt. The
// backup path is an ordinary hardware receive flow — unlike the drop
// policy's firmware error path, it costs only the interrupt latency.
func (b *BackupRing) store(e RxNPFEntry) {
	b.queue = append(b.queue, e)
	if b.intPending {
		return
	}
	b.intPending = true
	b.dev.Eng.After(b.dev.Cfg.IntLatency, func() {
		b.intPending = false
		entries := b.queue
		b.queue = nil // driver replenishes the ring promptly
		if b.dev.sink == nil {
			panic("nic: backup ring used without an NPF sink (driver not attached)")
		}
		b.dev.sink.HandleRxNPF(entries)
	})
}
