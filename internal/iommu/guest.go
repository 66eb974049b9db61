package iommu

import (
	"npf/internal/mem"
	"npf/internal/sim"
)

// GuestTable is the IOuser-managed first level of a two-dimensional IOMMU
// translation (§2.4): the guest table translates guest-virtual to
// guest-physical (and is how an IOuser enforces "strict" protection on its
// own channel), while the host-level Domain — the IOprovider's table — is
// where NPFs and the canonical memory optimizations live. The hardware
// concatenates the two walks.
//
// The simulation models the guest level as a permission filter: accesses
// outside the allowed set are protection violations the device must drop,
// *not* NPFs — no amount of IOprovider paging can make them legal.
type GuestTable struct {
	allowed mem.PageTable[bool]
	granted int // pages with allowed set

	// Violations counts accesses the guest table blocked.
	Violations sim.Counter
}

// NewGuestTable returns an empty (all-blocking) guest table.
func NewGuestTable() *GuestTable { return &GuestTable{} }

// Allow grants DMA access to count pages starting at first.
func (g *GuestTable) Allow(first mem.PageNum, count int) {
	for i := 0; i < count; i++ {
		if p := g.allowed.At(first + mem.PageNum(i)); !*p {
			*p = true
			g.granted++
		}
	}
}

// Revoke removes DMA access (the IOuser's fine-grained unmap).
func (g *GuestTable) Revoke(first mem.PageNum, count int) {
	for i := 0; i < count; i++ {
		if p := g.allowed.Lookup(first + mem.PageNum(i)); p != nil && *p {
			*p = false
			g.granted--
		}
	}
}

// Allowed reports whether pn may be DMAed.
func (g *GuestTable) Allowed(pn mem.PageNum) bool { return g.allowed.Get(pn) }

// AllowedPages reports the grant count.
func (g *GuestTable) AllowedPages() int { return g.granted }

// SetGuestTable installs (or clears, with nil) the guest level on this
// domain. With a guest table set, every device walk pays a second-level
// walk cost, and Blocked must be consulted before the fault path.
func (d *Domain) SetGuestTable(g *GuestTable) { d.guest = g }

// Blocked reports whether any page of the access [addr, addr+length) is
// forbidden by the guest table. Blocked accesses are protection violations:
// the device drops them and no NPF is raised.
func (d *Domain) Blocked(addr mem.VAddr, length int) bool {
	if d.guest == nil || length <= 0 {
		return false
	}
	first := addr.Page()
	n := mem.PagesSpanned(addr, length)
	for i := 0; i < n; i++ {
		if !d.guest.allowed.Get(first + mem.PageNum(i)) {
			d.guest.Violations.Inc()
			return true
		}
	}
	return false
}
