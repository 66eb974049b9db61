package mem

import (
	"container/list"

	"npf/internal/sim"
)

// PageCache models an OS page cache in front of a disk: reads of cached
// blocks are free, misses pay the disk and insert the block, and cached
// blocks compete for memory with everything else in the same groups (which
// is exactly the competition Figure 8a measures between tgt's pinned
// communication buffers and the cache).
type PageCache struct {
	Name      string
	m         *Machine
	groups    []*Group
	Disk      *SwapDevice
	BlockSize int64

	blocks map[int64]*cacheBlock
	lru    *list.List

	Hits   sim.Counter
	Misses sim.Counter
}

type cacheBlock struct {
	id      int64
	access  sim.Time
	lruElem *list.Element
}

// NewPageCache creates a page cache on machine m charging the given cgroup
// (may be nil) and machine RAM, reading from disk with the given block size.
func (m *Machine) NewPageCache(name string, cgroup *Group, disk *SwapDevice, blockSize int64) *PageCache {
	pc := &PageCache{
		Name:      name,
		m:         m,
		Disk:      disk,
		BlockSize: blockSize,
		blocks:    make(map[int64]*cacheBlock),
		lru:       list.New(),
	}
	if cgroup != nil {
		pc.groups = append(pc.groups, cgroup)
	}
	pc.groups = append(pc.groups, m.RAM)
	for _, g := range pc.groups {
		g.addMember(pc)
	}
	return pc
}

// Read reads one block, returning its synchronous cost and whether it hit.
// A miss pays the disk and inserts the block, reclaiming cold memory from
// the cache's groups if needed; if even reclaim cannot make room the read
// still succeeds but the block is not cached (uncached I/O).
func (pc *PageCache) Read(block int64) (cost sim.Time, hit bool) {
	if b := pc.blocks[block]; b != nil {
		b.access = pc.m.Eng.Now()
		pc.lru.MoveToBack(b.lruElem)
		pc.Hits.Inc()
		return 0, true
	}
	pc.Misses.Inc()
	cost = pc.Disk.ReadCost(int(pc.BlockSize))
	chargeCost, err := pc.charge(pc.BlockSize)
	cost += chargeCost
	if err != nil {
		return cost, false // uncached read; nothing to evict anywhere
	}
	b := &cacheBlock{id: block, access: pc.m.Eng.Now()}
	b.lruElem = pc.lru.PushBack(b)
	pc.blocks[block] = b
	return cost, false
}

func (pc *PageCache) charge(n int64) (sim.Time, error) {
	var cost sim.Time
	for i, g := range pc.groups {
		c, err := g.charge(n)
		cost += c
		if err != nil {
			for j := 0; j < i; j++ {
				pc.groups[j].uncharge(n)
			}
			return cost, err
		}
	}
	return cost, nil
}

// evictable interface.

func (pc *PageCache) oldestAccess() (sim.Time, bool) {
	front := pc.lru.Front()
	if front == nil {
		return 0, false
	}
	return front.Value.(*cacheBlock).access, true
}

func (pc *PageCache) evictOldest() (int64, sim.Time, bool) {
	front := pc.lru.Front()
	if front == nil {
		return 0, 0, false
	}
	b := front.Value.(*cacheBlock)
	pc.lru.Remove(b.lruElem)
	delete(pc.blocks, b.id)
	for _, g := range pc.groups {
		g.uncharge(pc.BlockSize)
	}
	return pc.BlockSize, 0, true
}
