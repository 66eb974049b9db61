package main

// Example runs the program and checks its output byte for byte, so a
// change that moves any number the example prints fails go test.
func Example() {
	main()
	// Output:
	// received "hello, ODP" (65536 bytes) at t=521.257µs
	//
	// sender-side NPFs resolved:   1
	// receiver-side NPFs resolved: 1
	// RNR NACKs sent by receiver:  1
	// mean NPF service time:       220 µs (paper: ≈220 µs for 4 KB)
	// cold 64 KB message latency:  521.257µs
	//
	// no byte of memory was ever pinned.
}
