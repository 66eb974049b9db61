package main

// Example runs the program and checks its output byte for byte, so a
// change that moves any number the example prints fails go test.
func Example() {
	main()
	// Output:
	// distributed KV (3 servers × 4 shards × 2 replicas, 2000 Zipf ops,
	// 4 reclaim waves squeezing every shard cgroup to 64 KB):
	//   pinned           2000 ops   p50    13 µs   p99     27 µs       0 NPFs       0 evictions
	//   pin-down-cache   2000 ops   p50    14 µs   p99  12019 µs    1508 NPFs    1963 evictions
	//   odp              2000 ops   p50    14 µs   p99  15011 µs    1496 NPFs    1963 evictions
	//
	// pinned ignores reclaim but can never give memory back; ODP absorbs
	// the squeeze as tail latency and re-faults its way home (Table 3).
}
