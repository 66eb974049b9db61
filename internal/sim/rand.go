package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random source
// (SplitMix64-based). It is not safe for concurrent use, which is fine: the
// engine is single-threaded by design.
type Rand struct {
	state uint64
}

// NewRand returns a source seeded with seed.
func NewRand(seed int64) *Rand {
	r := &Rand{state: uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567899ABCDEF}
	// Warm up so that nearby seeds diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box–Muller).
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)); useful for long-tailed latency
// distributions like NIC firmware processing times.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Zipf draws values in [0, n) with a Zipfian distribution of exponent
// s>1 (s<=1 is clamped): rank 0 is the hottest. A precomputed inverse-CDF
// table is too costly for large n, so Draw inverts the continuous density
// p(k) ∝ k^-s over [1, n] in closed form:
//
//	k = (1 + u·(n^(1-s) − 1))^(1/(1-s))
//
// which is rejection-free and allocation-free. NewZipf computes the two
// constants, n^(1-s) − 1 and 1/(1-s), once per (n, s), so a draw costs
// one math.Pow.
type Zipf struct {
	n   int
	a   float64 // n^(1-s) − 1
	inv float64 // 1/(1-s)
}

// NewZipf returns the distribution over [0, n) with exponent s.
func NewZipf(n int, s float64) Zipf {
	if s <= 1 {
		s = 1.0001
	}
	return Zipf{n: n, a: math.Pow(float64(n), 1-s) - 1, inv: 1 / (1 - s)}
}

// Draw returns one value from r. It draws nothing when n <= 1.
func (z Zipf) Draw(r *Rand) int {
	if z.n <= 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	x := int(math.Pow(1+u*z.a, z.inv)) - 1
	if x < 0 {
		x = 0
	}
	if x >= z.n {
		x = z.n - 1
	}
	return x
}

// Split returns a new independent source derived from this one, so that
// subsystems can draw random numbers without perturbing each other's
// sequences.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64() ^ 0xD1B54A32D192ED03}
}
