// Keyvalue: the distributed key-value service from internal/kv driven
// through the public API — a sharded, primary/backup-replicated store
// spread across simulated hosts, with a Zipf-skewed workload and a
// mid-run reclaim squeeze on the servers' memory cgroups.
//
// The run compares the paper's Table 3 registration spectrum at service
// scale: a fully pinned deployment shrugs off the squeeze but holds its
// memory forever; ODP and the pin-down cache give memory back and pay for
// it in the tail (network page faults, refaults) — exactly the
// elasticity-vs-tail-latency tradeoff the paper argues ODP makes viable.
//
// Run with: go run ./examples/keyvalue
package main

import (
	"fmt"

	"npf"
)

// run deploys the service under one registration policy, squeezes every
// shard's cgroup to 64 KB four times mid-run, and reports the workload's
// latency profile.
func run(reg npf.KVRegPolicy) {
	cluster := npf.NewCluster(npf.WithSeed(7), npf.WithKV(npf.KVConfig{
		ServerHosts: 3, ClientHosts: 1, Shards: 4, Replicas: 2,
		Reg: reg, ExpectedKeys: 1024,
	}))
	svc := cluster.KV

	// Reclaim waves: squeeze all shard groups to the floor, hold 5 ms,
	// release. Pinned arenas are immune; ODP arenas evict and refault.
	for wave := 0; wave < 4; wave++ {
		at := npf.Time(5+15*wave) * npf.Millisecond
		cluster.Eng.At(at, func() {
			for _, g := range svc.Groups() {
				g.SetLimit(64 << 10)
			}
		})
		cluster.Eng.At(at+5*npf.Millisecond, func() {
			for _, g := range svc.Groups() {
				g.SetLimit(0)
			}
		})
	}

	wl := svc.NewWorkload(npf.WorkloadConfig{
		TargetOps: 2000, Keys: 1024, ZipfS: 1.1, GetRatio: 0.9,
		Prepopulate: true, FrontCacheEntries: 32,
	})
	wl.OnDone = func() {
		svc.Eng.After(300*npf.Millisecond, func() { svc.Stop() })
	}
	wl.Start()
	cluster.RunUntil(60 * npf.Second)

	if diverged := svc.CheckConsistency(); len(diverged) != 0 {
		panic(fmt.Sprint("replicas diverged: ", diverged))
	}
	fmt.Printf("  %-15v %5d ops   p50 %5.0f µs   p99 %6.0f µs   %5d NPFs   %5d evictions\n",
		reg, wl.Completed(), wl.Lat.Percentile(50), wl.Lat.Percentile(99),
		svc.NPFs(), svc.GroupEvictions())
}

func main() {
	fmt.Println("distributed KV (3 servers × 4 shards × 2 replicas, 2000 Zipf ops,")
	fmt.Println("4 reclaim waves squeezing every shard cgroup to 64 KB):")
	for _, reg := range []npf.KVRegPolicy{npf.KVRegPinned, npf.KVRegPinDown, npf.KVRegODP} {
		run(reg)
	}
	fmt.Println("\npinned ignores reclaim but can never give memory back; ODP absorbs")
	fmt.Println("the squeeze as tail latency and re-faults its way home (Table 3).")
}
