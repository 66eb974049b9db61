package main

// Example runs the program and checks its output byte for byte, so a
// change that moves any number the example prints fails go test.
func Example() {
	main()
	// Output:
	// ring exchange: 4 nodes, 256 KiB messages, 16-buffer rotation, 300 iterations
	//
	// pin-down cache (2048 KiB bound): 41.75236ms  (37888 page evictions per node)
	// on-demand paging:              17.500888ms
	//
	// the cache holds half the working set, so every buffer reuse re-pins
	// and re-registers (map/unmap churn); ODP faults each buffer once and
	// stays warm. with a big-enough cache the two tie — at the price of
	// permanently locked memory (Table 3's coarse-grained pinning tradeoff).
}
