package main

// Example runs the program and checks its output byte for byte, so a
// change that moves any number the example prints fails go test.
func Example() {
	main()
	// Output:
	// dataset registered: 4 GiB virtual, 0 bytes resident
	//
	// reads completed:            32 × 1024 KiB
	// server resident afterwards: 32 MiB of 4 GiB (0.78%)
	// server-side NPFs:           32 (read-responder faults)
	// client-side NPFs:           16
	// read rewinds (initiator faulted mid-stream): 16
	//
	// with pinning, serving this dataset would have locked 4 GiB up front.
}
