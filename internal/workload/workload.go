// Package workload is the shared load-generator layer: the Zipf-skewed
// open/closed-loop op sources that were private to internal/kv, extracted
// so the million-client scale-out sweep (internal/topo) and the KV service
// draw from one implementation.
//
// Everything here is deterministic and allocation-disciplined:
//
//   - Config carries the generator knobs (clients, target ops, get ratio,
//     key-space size and Zipf exponent, open/closed loop, arrival rate) and
//     draws from them: NextOp and NextArrival read the tenant's one
//     defaulted Config and a client's split RNG — seeded draws only, so
//     same-seed runs replay byte-identically. A client holds only its RNG,
//     so 10^5 swarm clients cost one pointer-free slice, and the draws
//     never allocate.
//   - KeyTable interns the canonical "key-%07d" names so the steady-state
//     op path never formats strings.
package workload

import (
	"npf/internal/sim"
)

// Config sizes one tenant's load generator. The zero value is usable after
// WithDefaults; field semantics (and defaults) match the historical
// kv.WorkloadConfig, which is now an alias of this type.
type Config struct {
	// Tenant names the workload; per-tenant latency probes are published
	// under this name (default "default").
	Tenant string
	// Clients is the number of concurrent closed-loop clients (or
	// open-loop arrival streams) (default 8).
	Clients int
	// TargetOps is the total operation count across all clients (default
	// 2000). The workload completes when every op has a reply.
	TargetOps int
	// GetRatio is the fraction of gets (default 0.9, memcached-style).
	GetRatio float64
	// Keys is the key-space size; keys are drawn Zipf-distributed so a
	// hot head dominates (default: caller-provided, e.g. the KV service's
	// ExpectedKeys).
	Keys int
	// ZipfS is the Zipf exponent (default 1.1).
	ZipfS float64
	// OpenLoop issues ops on an exponential arrival clock regardless of
	// completions (coordinated-omission-free); the default closed loop
	// keeps one op outstanding per client. Only kv runs an open loop: a
	// scale-out sweep rejects an open-loop tenant.
	OpenLoop bool
	// ArrivalRate is ops/sec per client in open-loop mode (default 20k).
	ArrivalRate float64
	// FrontCacheEntries bounds the host-level hot-key front cache; 0
	// disables it. Gets hitting the cache complete locally.
	FrontCacheEntries int
	// RequestTimeout retries an op that got no reply — lost to a downed
	// link, a dropped datagram, or a deposed primary (default 50ms).
	RequestTimeout sim.Time
	// Prepopulate bulk-loads every key before traffic, so gets hit and
	// arenas start resident.
	Prepopulate bool

	// zipf is the key distribution over Keys at ZipfS, computed once by
	// WithDefaults.
	zipf sim.Zipf
}

// WithDefaults fills zero fields with the documented defaults and fixes
// the key distribution NextOp draws from.
// defaultKeys seeds the key-space size when Keys is zero (the KV service
// passes its ExpectedKeys; the scale-out sweep passes its own).
func (c Config) WithDefaults(defaultKeys int) Config {
	if c.Tenant == "" {
		c.Tenant = "default"
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.TargetOps == 0 {
		c.TargetOps = 2000
	}
	if c.GetRatio == 0 {
		c.GetRatio = 0.9
	}
	if c.Keys == 0 {
		c.Keys = defaultKeys
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.ArrivalRate == 0 {
		c.ArrivalRate = 20_000
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 50 * sim.Millisecond
	}
	c.zipf = sim.NewZipf(c.Keys, c.ZipfS)
	return c
}

// NextOp draws one operation from rng, a client's split stream: whether
// it is a get, and the Zipf-ranked key index. The draw order (Bernoulli,
// then Zipf) is the historical kv order, so extracting the generator did
// not change any seeded run. c must already have defaults applied. Runs on
// every simulated op, so it is fenced allocation-free (and gated at
// runtime by TestSourceDrawAllocs).
//
//npf:noalloc
func (c *Config) NextOp(rng *sim.Rand) (get bool, key int) {
	get = rng.Bernoulli(c.GetRatio)
	key = c.zipf.Draw(rng)
	return get, key
}

// NextArrival draws an open-loop inter-arrival gap from rng at the
// configured per-client rate. The +1ns floor keeps gaps strictly positive.
// Runs on every open-loop arrival, so it is fenced allocation-free like
// NextOp.
//
//npf:noalloc
func (c *Config) NextArrival(rng *sim.Rand) sim.Time {
	gap := rng.Exp(1e9 / c.ArrivalRate) // mean gap in ns
	return sim.Time(gap) + sim.Nanosecond
}
