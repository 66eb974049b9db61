package mem

import (
	"testing"

	"npf/internal/sim"
)

func BenchmarkTouchWarm(b *testing.B) {
	m := NewMachine(sim.NewEngine(1), 1<<30)
	as := m.NewAddressSpace("p", nil)
	as.MapBytes(1 << 20)
	as.TouchPages(0, 256, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.TouchPages(PageNum(i&255), 1, false)
	}
}

func BenchmarkFaultInEvictCycle(b *testing.B) {
	// Steady-state paging: every fault-in evicts another page.
	m := NewMachine(sim.NewEngine(1), 256*PageSize)
	as := m.NewAddressSpace("p", nil)
	as.MapBytes(1 << 30)
	as.TouchPages(0, 256, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.TouchPages(256+PageNum(i%4096), 1, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultInRangeBatch(b *testing.B) {
	m := NewMachine(sim.NewEngine(1), 1<<34)
	as := m.NewAddressSpace("p", nil)
	as.MapBytes(1 << 33)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.FaultInRange(PageNum(i*64)%(1<<20), 64, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageCacheHit(b *testing.B) {
	m := NewMachine(sim.NewEngine(1), 1<<30)
	pc := m.NewPageCache("pc", nil, DefaultSwap(), 1<<20)
	for i := int64(0); i < 64; i++ {
		pc.Read(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Read(int64(i & 63))
	}
}

// BenchmarkTouchResident times the DMA touch of one resident page, the
// RC and NIC data path's access after each translated chunk.
func BenchmarkTouchResident(b *testing.B) {
	b.ReportAllocs()
	m := NewMachine(sim.NewEngine(1), 1<<30)
	as := m.NewAddressSpace("p", nil)
	as.MapBytes(1 << 22)
	as.TouchPages(0, 1024, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !as.TouchResident(VAddr(i&1023)*PageSize, PageSize, i&1 == 0) {
			b.Fatal("resident page refused")
		}
	}
}
