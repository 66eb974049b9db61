package kv

import (
	"fmt"
	"sort"
)

// vnodesPerHost is the number of virtual points each host contributes to
// the consistent-hash ring. 64 keeps shard counts per host within a few
// percent of even for the deployment sizes this package simulates.
const vnodesPerHost = 64

// fnv64 is FNV-1a — a fixed, seed-free hash so placement is a pure
// function of the configuration (identical across runs and processes).
func fnv64(s string) uint64 {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

type ringPoint struct {
	hash  uint64
	host  int
	vnode int
}

// Placement is the control-plane table: a consistent-hash ring assigning
// each shard an ordered replica set, plus the current primary and a
// monotonically increasing epoch per shard. It stands in for a metadata
// service (etcd/PD); updates are modelled as propagating instantly, while
// *observations* of it are made by hosts and clients on their own
// schedules — so a deposed primary can serve stale reads until its next
// detector tick, exactly like an expired lease holder.
type Placement struct {
	shards   int
	replicas int
	table    [][]int  // shard -> replica hosts, placement order
	primary  []int    // shard -> current primary host
	epoch    []uint64 // shard -> failover epoch
}

// NewPlacement builds the ring over the given server host indices and
// assigns each shard its replica set: the first `replicas` distinct hosts
// encountered walking the ring clockwise from the shard's hash point.
func NewPlacement(shards, replicas int, hosts []int) *Placement {
	if replicas > len(hosts) {
		replicas = len(hosts)
	}
	var ring []ringPoint
	for _, h := range hosts {
		for v := 0; v < vnodesPerHost; v++ {
			ring = append(ring, ringPoint{
				hash:  fnv64(fmt.Sprintf("host-%d/vnode-%d", h, v)),
				host:  h,
				vnode: v,
			})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		if ring[i].host != ring[j].host {
			return ring[i].host < ring[j].host
		}
		return ring[i].vnode < ring[j].vnode
	})

	p := &Placement{
		shards:   shards,
		replicas: replicas,
		table:    make([][]int, shards),
		primary:  make([]int, shards),
		epoch:    make([]uint64, shards),
	}
	for s := 0; s < shards; s++ {
		start := sort.Search(len(ring), func(i int) bool {
			return ring[i].hash >= fnv64(fmt.Sprintf("shard-%d", s))
		})
		seen := make(map[int]bool, replicas)
		var set []int
		for i := 0; len(set) < replicas; i++ {
			pt := ring[(start+i)%len(ring)]
			if !seen[pt.host] {
				seen[pt.host] = true
				set = append(set, pt.host)
			}
		}
		p.table[s] = set
		p.primary[s] = set[0]
	}
	return p
}

// ShardOfKey maps a key to its shard.
func (p *Placement) ShardOfKey(key string) int {
	return int(fnv64(key) % uint64(p.shards))
}

// ReplicaHosts returns shard's replica hosts in placement (promotion)
// order. The caller must not mutate the slice.
func (p *Placement) ReplicaHosts(shard int) []int { return p.table[shard] }

// PrimaryHost returns the host currently holding shard's primary.
func (p *Placement) PrimaryHost(shard int) int { return p.primary[shard] }

// Epoch returns shard's failover epoch (0 until the first promotion).
func (p *Placement) Epoch(shard int) uint64 { return p.epoch[shard] }

// Promote makes host shard's primary and bumps the epoch. It reports
// whether the table changed (promoting the current primary is a no-op).
func (p *Placement) Promote(shard, host int) bool {
	if p.primary[shard] == host {
		return false
	}
	p.primary[shard] = host
	p.epoch[shard]++
	return true
}
