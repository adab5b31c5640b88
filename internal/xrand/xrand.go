// Package xrand is a tiny deterministic random number generator (splitmix64)
// with the distributions the cloud simulator needs. It exists instead of
// math/rand so that experiment outputs are bit-reproducible across Go
// releases: the experiments are regression-tested against the paper's
// qualitative results, and a silently reshuffled stream would turn those
// tests flaky.
package xrand

import "math"

// RNG is a splitmix64 generator. The zero value is a valid generator seeded
// with 0; prefer New.
type RNG struct{ state uint64 }

// New returns a generator for the given seed.
func New(seed uint64) *RNG { return &RNG{state: seed ^ 0x9E3779B97F4A7C15} }

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	return Mix(r.state)
}

// Mix is the splitmix64 finalizer, a bijection that scrambles every bit of
// x into every bit of the result. Uint64 is Mix of a state advanced by a
// fixed step; stateless callers (per-index seeds, hashed coins) use it
// directly.
func Mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate (Box-Muller).
func (r *RNG) Norm() float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns exp(N(mu, sigma)). With mu = -sigma^2/2 the mean is 1,
// which is how the simulator applies multiplicative throughput noise without
// biasing the mean rate.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// NoiseFactor returns a mean-1 multiplicative lognormal noise factor with
// the given sigma.
func (r *RNG) NoiseFactor(sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	return r.LogNormal(-sigma*sigma/2, sigma)
}

// Fork derives an independent generator; useful to give each simulated
// entity its own stream so adding one entity does not perturb the others.
func (r *RNG) Fork() *RNG {
	return New(r.Uint64())
}
