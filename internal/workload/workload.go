// Package workload is the shared load-generator layer: the Zipf-skewed
// open/closed-loop op sources that were private to internal/kv, extracted
// so the million-client scale-out sweep (internal/topo) and the KV service
// draw from one implementation.
//
// Everything here is deterministic and allocation-disciplined:
//
//   - Config carries the generator knobs (clients, target ops, get ratio,
//     key-space size and Zipf exponent, open/closed loop, arrival rate) plus
//     a Curve shaping the arrival rate over virtual time (diurnal swing,
//     flash crowd) — seeded draws only, so same-seed runs replay
//     byte-identically.
//   - Source is one logical client's draw stream over a split RNG. Its
//     methods never allocate; a Source embeds by value in swarm-client
//     structs so 10^5 clients cost one slice, not 10^5 heap objects.
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
	// keeps one op outstanding per client.
	OpenLoop bool
	// ArrivalRate is ops/sec per client in open-loop mode (default 20k),
	// before Curve modulation.
	ArrivalRate float64
	// Curve shapes ArrivalRate over virtual time (diurnal swing, flash
	// crowd). The zero Curve is a constant rate.
	Curve Curve
	// FrontCacheEntries bounds the host-level hot-key front cache; 0
	// disables it. Gets hitting the cache complete locally.
	FrontCacheEntries int
	// RequestTimeout retries an op that got no reply — lost to a downed
	// link, a dropped datagram, or a deposed primary (default 50ms).
	RequestTimeout sim.Time
	// Prepopulate bulk-loads every key before traffic, so gets hit and
	// arenas start resident.
	Prepopulate bool
}

// WithDefaults fills zero fields with the documented defaults.
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
	return c
}

// Source is one logical client's deterministic draw stream: op mix, key
// popularity, and open-loop arrival gaps. It holds its split RNG's state
// and the distribution parameters by value, so it embeds in per-client
// structs without a pointer (a slice of 10^5 clients is then one object
// the garbage collector never scans) and its methods never allocate.
type Source struct {
	rng      sim.Rand
	getRatio float64
	keys     int
	zipfS    float64
	rate     float64 // per-client base arrival rate, ops/sec
	curve    Curve
}

// NewSource builds a Source drawing from rng (split one RNG per client, in
// construction order, so clients are order-independent). The Source copies
// rng's state and draws from its own copy. cfg must already have defaults
// applied.
func NewSource(cfg Config, rng *sim.Rand) Source {
	return Source{
		rng:      *rng,
		getRatio: cfg.GetRatio,
		keys:     cfg.Keys,
		zipfS:    cfg.ZipfS,
		rate:     cfg.ArrivalRate,
		curve:    cfg.Curve,
	}
}

// NextOp draws one operation: whether it is a get, and the Zipf-ranked key
// index. The draw order (Bernoulli, then Zipf) is the historical kv order,
// so extracting the generator did not change any seeded run. Runs on every
// simulated op, so it is fenced allocation-free (and gated at runtime by
// TestSourceDrawAllocs).
//
//npf:noalloc
func (s *Source) NextOp() (get bool, key int) {
	get = s.rng.Bernoulli(s.getRatio)
	key = s.rng.Zipf(s.keys, s.zipfS)
	return get, key
}

// NextArrival draws the open-loop inter-arrival gap at virtual time now,
// with the configured curve modulating the base rate. The +1ns floor keeps
// gaps strictly positive. Runs on every open-loop arrival, so it is fenced
// allocation-free like NextOp.
//
//npf:noalloc
func (s *Source) NextArrival(now sim.Time) sim.Time {
	rate := s.rate * s.curve.Mult(now)
	gap := s.rng.Exp(1e9 / rate) // mean gap in ns
	return sim.Time(gap) + sim.Nanosecond
}

// Rand exposes the source's RNG for draws beyond the canned ones (e.g.
// value-size jitter). Deterministic: the RNG is the client's split stream.
// The pointer is into s, so it is valid as long as s stays where it is.
func (s *Source) Rand() *sim.Rand { return &s.rng }
