package iommu

import (
	"testing"

	"npf/internal/mem"
)

func BenchmarkTranslateIOTLBHit(b *testing.B) {
	u := New(1024)
	d := u.NewDomain()
	d.Map(0, 256)
	d.Translate(0, 256*mem.PageSize) // warm the IOTLB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TranslateAccess(mem.VAddr(i&255)*mem.PageSize, mem.PageSize, false)
	}
}

func BenchmarkTranslateWalk(b *testing.B) {
	u := New(0) // no IOTLB: every access walks
	d := u.NewDomain()
	d.Map(0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TranslateAccess(mem.VAddr(i&255)*mem.PageSize, mem.PageSize, false)
	}
}

func BenchmarkMapUnmapCycle(b *testing.B) {
	u := New(1024)
	d := u.NewDomain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pn := mem.PageNum(i & 1023)
		d.Map(pn, 1)
		d.Unmap(pn, 1)
	}
}

func BenchmarkMapBatch64(b *testing.B) {
	u := New(1024)
	d := u.NewDomain()
	pages := make([]mem.PageNum, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pages {
			pages[j] = mem.PageNum(i*64 + j)
		}
		d.MapBatch(pages)
	}
}

// BenchmarkTranslateMissInstall times a one-page translate that misses the
// IOTLB, walks and installs, evicting at capacity.
func BenchmarkTranslateMissInstall(b *testing.B) {
	b.ReportAllocs()
	_, translate := missInstallDomain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		translate()
	}
}

// BenchmarkTranslateFaulting4MB times the translate that reports a
// faulting RC message's misses: 1,024 unmapped pages, one miss list.
func BenchmarkTranslateFaulting4MB(b *testing.B) {
	b.ReportAllocs()
	d := New(1024).NewDomain()
	for i := 0; i < b.N; i++ {
		d.TranslateAccess(0, 4<<20, true)
	}
}
