package iommu

import (
	"testing"

	"npf/internal/mem"
)

func TestDomainBlocked(t *testing.T) {
	u := New(0)
	d := u.NewDomain()
	if d.Blocked(0, mem.PageSize) {
		t.Fatal("no guest table: nothing is blocked")
	}
	g := NewGuestTable()
	d.SetGuestTable(g)
	if !d.Blocked(0, mem.PageSize) {
		t.Fatal("empty guest table must block everything")
	}
	g.Allow(0, 2)
	if d.Blocked(0, 2*mem.PageSize) {
		t.Fatal("allowed range blocked")
	}
	// Range spilling past the grant is blocked.
	if !d.Blocked(mem.PageNum(1).Base(), 2*mem.PageSize) {
		t.Fatal("partially allowed range must block")
	}
	if g.Violations.N == 0 {
		t.Fatal("violations not counted")
	}
}

func TestNestedWalkCostsMore(t *testing.T) {
	u := New(0) // no IOTLB: every access walks
	flat := u.NewDomain()
	flat.Map(0, 1)
	costFlat, _ := flat.TranslateAccess(0, mem.PageSize, false)

	nested := u.NewDomain()
	nested.Map(0, 1)
	g := NewGuestTable()
	g.Allow(0, 1)
	nested.SetGuestTable(g)
	costNested, _ := nested.TranslateAccess(0, mem.PageSize, false)
	if costNested != 2*costFlat {
		t.Fatalf("nested walk %v, want 2× flat %v", costNested, costFlat)
	}
}
