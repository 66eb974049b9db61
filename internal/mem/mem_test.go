package mem

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"npf/internal/sim"
)

func newTestMachine(ramBytes int64) *Machine {
	return NewMachine(sim.NewEngine(1), ramBytes)
}

func TestPagesSpanned(t *testing.T) {
	cases := []struct {
		addr   VAddr
		length int
		want   int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, PageSize, 1},
		{0, PageSize + 1, 2},
		{PageSize - 1, 2, 2},
		{100, 4 << 20, 1025},
		{0, 4 << 20, 1024},
	}
	for _, c := range cases {
		if got := PagesSpanned(c.addr, c.length); got != c.want {
			t.Errorf("PagesSpanned(%d,%d) = %d, want %d", c.addr, c.length, got, c.want)
		}
	}
}

func TestDemandPaging(t *testing.T) {
	m := newTestMachine(1 << 20)
	as := m.NewAddressSpace("p", nil)
	base := as.MapBytes(64 * PageSize)
	if as.ResidentBytes() != 0 {
		t.Fatal("mapping should not allocate (delayed allocation)")
	}
	res, err := as.Touch(base, PageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Minor != 1 || res.Major != 0 {
		t.Fatalf("first touch: %+v, want one minor fault", res)
	}
	if as.ResidentBytes() != PageSize {
		t.Fatalf("resident = %d, want one page", as.ResidentBytes())
	}
	res, err = as.Touch(base, PageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Minor+res.Major != 0 || res.Cost != 0 {
		t.Fatalf("second touch should hit: %+v", res)
	}
}

func TestSegv(t *testing.T) {
	m := newTestMachine(1 << 20)
	as := m.NewAddressSpace("p", nil)
	_ = as.MapBytes(PageSize)
	if _, err := as.Touch(5*PageSize, 1, false); !errors.Is(err, ErrSegv) {
		t.Fatalf("err = %v, want ErrSegv", err)
	}
}

// TestPTESize pins the page-table entry at 32 bytes, one allocation size
// class: pn is 32 bits and the four state bools share one word.
func TestPTESize(t *testing.T) {
	if sz := unsafe.Sizeof(pte{}); sz != 32 {
		t.Fatalf("unsafe.Sizeof(pte{}) = %d, want 32", sz)
	}
}

// MapBytes rejects a negative size and any mapping past maxPages, the
// bound that lets a pte store its page number in 32 bits, and leaves the
// space as it was.
func TestMapBytesBounds(t *testing.T) {
	cases := []struct {
		name   string
		before int64 // bytes mapped first
		n      int64
		panics bool
	}{
		{"zero", 0, 0, false},
		{"one byte", 0, 1, false},
		{"whole space", 0, maxPages * PageSize, false},
		{"rest of space", PageSize, (maxPages - 1) * PageSize, false},
		{"negative", 0, -1, true},
		{"most negative", 0, math.MinInt64, true},
		{"one byte past", 0, maxPages*PageSize + 1, true},
		{"one page past the rest", PageSize, maxPages * PageSize, true},
		{"max int64", 0, math.MaxInt64, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			as := newTestMachine(1<<20).NewAddressSpace("p", nil)
			as.MapBytes(c.before)
			mapped := as.MappedBytes()
			func() {
				defer func() {
					r := recover()
					if c.panics != (r != nil) {
						t.Fatalf("MapBytes(%d) recovered %v, want panic %v", c.n, r, c.panics)
					}
					if r != nil && !strings.Contains(r.(string), "invariant") {
						t.Fatalf("MapBytes(%d) recovered %v, want an invariant panic", c.n, r)
					}
				}()
				as.MapBytes(c.n)
			}()
			if c.panics && as.MappedBytes() != mapped {
				t.Fatalf("refused MapBytes(%d) moved MappedBytes %d -> %d", c.n, mapped, as.MappedBytes())
			}
		})
	}
	// The last mappable page keeps its number through the 32-bit pn: its
	// eviction notifies that page.
	as := newTestMachine(1<<20).NewAddressSpace("p", nil)
	as.MapBytes(maxPages * PageSize)
	var got PageNum = -1
	as.RegisterNotifier(NotifierFunc(func(first PageNum, _ int) sim.Time { got = first; return 0 }))
	last := PageNum(maxPages - 1)
	if _, err := as.TouchPages(last, 1, false); err != nil {
		t.Fatal(err)
	}
	if n, _ := as.EvictPages(last, 1); n != 1 || got != last {
		t.Fatalf("evicting page %d: %d evicted, notifier saw page %d", last, n, got)
	}
}

func TestEvictionAndMajorFault(t *testing.T) {
	m := newTestMachine(4 * PageSize)
	as := m.NewAddressSpace("p", nil)
	base := as.MapBytes(16 * PageSize)
	// Dirty 4 pages, filling RAM.
	for i := PageNum(0); i < 4; i++ {
		if _, err := as.TouchPages(i, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	// A 5th page forces eviction of page 0 (LRU).
	if _, err := as.TouchPages(4, 1, true); err != nil {
		t.Fatal(err)
	}
	if as.Resident(0) {
		t.Fatal("LRU page 0 should have been evicted")
	}
	if m.RAM.Used() != 4*PageSize {
		t.Fatalf("RAM used = %d, want full", m.RAM.Used())
	}
	// Touching page 0 again is a major fault (it was dirty → swapped).
	res, err := as.TouchPages(0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Major != 1 {
		t.Fatalf("re-touch: %+v, want major fault", res)
	}
	if res.Cost < m.Swap.ReadLatency {
		t.Fatalf("major fault cost %v < swap latency %v", res.Cost, m.Swap.ReadLatency)
	}
	_ = base
}

func TestCleanPagesDroppedNotSwapped(t *testing.T) {
	m := newTestMachine(2 * PageSize)
	as := m.NewAddressSpace("p", nil)
	_ = as.MapBytes(16 * PageSize)
	// Read-only touches: clean pages.
	as.TouchPages(0, 1, false)
	as.TouchPages(1, 1, false)
	as.TouchPages(2, 1, false) // evicts page 0, clean → dropped
	res, err := as.TouchPages(0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Minor != 1 || res.Major != 0 {
		t.Fatalf("clean page should re-fault minor: %+v", res)
	}
}

func TestPinBlocksEviction(t *testing.T) {
	m := newTestMachine(2 * PageSize)
	as := m.NewAddressSpace("p", nil)
	_ = as.MapBytes(16 * PageSize)
	if _, err := as.Pin(0, 2); err != nil {
		t.Fatal(err)
	}
	// RAM is full of pinned pages: next fault must OOM.
	if _, err := as.TouchPages(2, 1, false); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	as.Unpin(0, 1)
	if _, err := as.TouchPages(2, 1, false); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
	if as.Resident(0) {
		t.Fatal("unpinned page should have been the eviction victim")
	}
}

func TestMemlockLimit(t *testing.T) {
	m := newTestMachine(1 << 20)
	as := m.NewAddressSpace("p", nil)
	_ = as.MapBytes(1 << 20)
	as.MemlockLimit = 64 * 1024 // Linux's default RLIMIT_MEMLOCK (§3)
	if _, err := as.Pin(0, 16); err != nil {
		t.Fatalf("pin within limit: %v", err)
	}
	if _, err := as.Pin(16, 1); !errors.Is(err, ErrMemlockLimit) {
		t.Fatalf("err = %v, want ErrMemlockLimit", err)
	}
	if as.PinnedBytes() != 64*1024 {
		t.Fatalf("failed pin must not change pinnedBytes: %d", as.PinnedBytes())
	}
}

func TestPinIdempotent(t *testing.T) {
	m := newTestMachine(1 << 20)
	as := m.NewAddressSpace("p", nil)
	_ = as.MapBytes(1 << 20)
	as.Pin(0, 4)
	as.Pin(0, 4)
	if as.PinnedBytes() != 4*PageSize {
		t.Fatalf("double pin counted twice: %d", as.PinnedBytes())
	}
	as.Unpin(0, 4)
	as.Unpin(0, 4)
	if as.PinnedBytes() != 0 {
		t.Fatalf("pinned after unpin: %d", as.PinnedBytes())
	}
}

func TestCgroupLimit(t *testing.T) {
	m := newTestMachine(1 << 30)
	cg := NewGroup("container", 4*PageSize)
	as := m.NewAddressSpace("p", cg)
	_ = as.MapBytes(1 << 20)
	for i := PageNum(0); i < 8; i++ {
		if _, err := as.TouchPages(i, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	if as.ResidentBytes() != 4*PageSize {
		t.Fatalf("resident = %d, want cgroup limit", as.ResidentBytes())
	}
	if cg.Used() != 4*PageSize {
		t.Fatalf("cgroup used = %d", cg.Used())
	}
	if m.RAM.Used() != 4*PageSize {
		t.Fatalf("RAM used = %d, must mirror cgroup", m.RAM.Used())
	}
	if as.Evicted.N != 4 {
		t.Fatalf("evictions = %d, want 4", as.Evicted.N)
	}
}

func TestNotifierRunsOnEviction(t *testing.T) {
	m := newTestMachine(2 * PageSize)
	as := m.NewAddressSpace("p", nil)
	_ = as.MapBytes(1 << 20)
	var invalidated []PageNum
	as.RegisterNotifier(NotifierFunc(func(first PageNum, count int) sim.Time {
		for i := 0; i < count; i++ {
			invalidated = append(invalidated, first+PageNum(i))
		}
		return 5 * sim.Microsecond
	}))
	as.TouchPages(0, 2, true)
	res, err := as.TouchPages(2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(invalidated) != 1 || invalidated[0] != 0 {
		t.Fatalf("invalidated = %v, want [0]", invalidated)
	}
	if res.Cost < 5*sim.Microsecond {
		t.Fatalf("notifier cost not charged: %v", res.Cost)
	}
}

func TestLRUOrderRespectsTouches(t *testing.T) {
	m := newTestMachine(3 * PageSize)
	as := m.NewAddressSpace("p", nil)
	_ = as.MapBytes(1 << 20)
	as.TouchPages(0, 1, false)
	m.Eng.RunUntil(m.Eng.Now() + sim.Microsecond)
	as.TouchPages(1, 1, false)
	m.Eng.RunUntil(m.Eng.Now() + sim.Microsecond)
	as.TouchPages(2, 1, false)
	m.Eng.RunUntil(m.Eng.Now() + sim.Microsecond)
	as.TouchPages(0, 1, false) // refresh page 0: page 1 is now coldest
	as.TouchPages(3, 1, false)
	if as.Resident(1) {
		t.Fatal("page 1 should have been evicted (coldest)")
	}
	if !as.Resident(0) {
		t.Fatal("recently touched page 0 must survive")
	}
}

func TestTwoSpacesCompeteForRAM(t *testing.T) {
	m := newTestMachine(4 * PageSize)
	a := m.NewAddressSpace("a", nil)
	b := m.NewAddressSpace("b", nil)
	_ = a.MapBytes(1 << 20)
	_ = b.MapBytes(1 << 20)
	a.TouchPages(0, 4, true) // a fills RAM
	m.Eng.RunUntil(sim.Microsecond)
	if _, err := b.TouchPages(0, 2, true); err != nil {
		t.Fatal(err)
	}
	if a.ResidentBytes() != 2*PageSize || b.ResidentBytes() != 2*PageSize {
		t.Fatalf("resident a=%d b=%d, want memory to move to b",
			a.ResidentBytes(), b.ResidentBytes())
	}
}

func TestEvictPagesForced(t *testing.T) {
	m := newTestMachine(1 << 20)
	as := m.NewAddressSpace("p", nil)
	_ = as.MapBytes(1 << 20)
	as.TouchPages(0, 8, true)
	as.Pin(3, 1)
	n, _ := as.EvictPages(0, 8)
	if n != 7 {
		t.Fatalf("evicted %d, want 7 (pinned page skipped)", n)
	}
	if !as.Resident(3) {
		t.Fatal("pinned page evicted")
	}
}

func TestPageCache(t *testing.T) {
	m := newTestMachine(4 << 20)
	disk := &SwapDevice{ReadLatency: sim.Millisecond}
	pc := m.NewPageCache("pc", nil, disk, 1<<20)
	cost, hit := pc.Read(1)
	if hit || cost < sim.Millisecond {
		t.Fatalf("first read: cost=%v hit=%v", cost, hit)
	}
	cost, hit = pc.Read(1)
	if !hit || cost != 0 {
		t.Fatalf("second read: cost=%v hit=%v", cost, hit)
	}
	// Fill past RAM: 4 distinct blocks fit, the 5th evicts block 1.
	pc.Read(2)
	pc.Read(3)
	pc.Read(4)
	pc.Read(5)
	if _, hit := pc.Read(1); hit {
		t.Fatal("block 1 should have been evicted")
	}
	if cacheBytes(pc) > 4<<20 {
		t.Fatalf("cache exceeds RAM: %d", cacheBytes(pc))
	}
}

func TestPageCacheCompetesWithPinnedMemory(t *testing.T) {
	m := newTestMachine(4 << 20)
	as := m.NewAddressSpace("tgt", nil)
	_ = as.MapBytes(8 << 20)
	if _, err := as.Pin(0, 768); err != nil { // pin 3 MiB of 4 MiB
		t.Fatal(err)
	}
	disk := &SwapDevice{ReadLatency: sim.Millisecond}
	pc := m.NewPageCache("pc", nil, disk, 1<<20)
	pc.Read(1)
	if cacheBytes(pc) != 1<<20 {
		t.Fatalf("cache resident = %d", cacheBytes(pc))
	}
	// Second block cannot fit: pinned pages are unreclaimable, so the read
	// succeeds uncached.
	pc.Read(2)
	if cacheBytes(pc) > 1<<20 {
		t.Fatalf("cache grew past available memory: %d", cacheBytes(pc))
	}
}

// Property: resident bytes never exceed any group limit, under random
// touch/pin/unpin/evict sequences.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		m := newTestMachine(8 * PageSize)
		cg := NewGroup("cg", 6*PageSize)
		as := m.NewAddressSpace("p", cg)
		_ = as.MapBytes(64 * PageSize)
		as.MemlockLimit = 4 * PageSize
		for _, op := range ops {
			pn := PageNum(op % 32)
			switch op % 4 {
			case 0:
				as.TouchPages(pn, 1, false)
			case 1:
				as.TouchPages(pn, 1, true)
			case 2:
				as.Pin(pn, 1)
			case 3:
				as.Unpin(pn, 1)
			}
			if m.RAM.Used() > m.RAM.Limit || cg.Used() > cg.Limit {
				return false
			}
			if as.PinnedBytes() > as.MemlockLimit {
				return false
			}
			if as.ResidentBytes() != cg.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyCost(t *testing.T) {
	if got := CopyCost(10 << 20); got != sim.Time(float64(10<<20)/10e9*1e9) {
		t.Fatalf("copy cost = %v", got)
	}
}

// cacheBytes is pc's current footprint.
func cacheBytes(pc *PageCache) int64 { return int64(len(pc.blocks)) * pc.BlockSize }
