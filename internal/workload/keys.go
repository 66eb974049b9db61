package workload

import "fmt"

// KeyTable interns the canonical key names ("key-0000042"). The historical
// generator formatted a key string per op; at 10^5 logical clients that
// Sprintf dominates the allocation profile, so the table formats each name
// once and the steady-state path indexes a slice.
//
// The table grows lazily toward the highest index requested; with Zipf
// popularity the hot head is built in the first few ops and the cold tail
// only as drawn. One table per generator owner (service or sweep) — it is
// single-writer state on that owner's engine, like every other simulation
// structure.
type KeyTable struct {
	names []string
}

// Name returns the interned name for key index k, formatting it (and any
// gap below it) on first use.
func (t *KeyTable) Name(k int) string {
	for len(t.names) <= k {
		t.names = append(t.names, fmt.Sprintf("key-%07d", len(t.names)))
	}
	return t.names[k]
}
