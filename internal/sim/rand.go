package sim

import "math"

// Rand is a small, fast, deterministic PRNG (xoshiro256** seeded via
// SplitMix64). Every stochastic model component owns its own Rand derived
// from the experiment's master seed and a component label, so adding or
// reordering components does not perturb the random streams of the others —
// the property DIABLO gets for free from per-model hardware LFSRs.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a generator seeded from seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets r to the stream NewRand(seed) returns, so a Rand held by value
// draws without a heap allocation.
func (r *Rand) Seed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
}

// DeriveSeed mixes a master seed with a stream label into a new seed.
// It is stable across runs and platforms.
func DeriveSeed(master uint64, label string) uint64 {
	// FNV-1a over the label, mixed with the master seed through SplitMix64.
	h := uint64(1469598103934665603)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	st := master ^ h
	return splitmix64(&st)
}

// Fork returns a new independent generator derived from r and a label.
func (r *Rand) Fork(label string) *Rand {
	return NewRand(DeriveSeed(r.Uint64(), label))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	v := r.Uint64()
	bound := uint64(n)
	hi, lo := mul64(v, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			v = r.Uint64()
			hi, lo = mul64(v, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	c = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed duration with the given mean.
// Used for Poisson arrival processes.
func (r *Rand) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return Duration(-math.Log(u) * float64(mean))
}

// Pareto returns a generalized-Pareto sample with location mu, scale sigma
// and shape xi. Used by the Facebook ETC value-size model (Atikoglu et al.).
func (r *Rand) Pareto(mu, sigma, xi float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	if xi == 0 {
		return mu - sigma*math.Log(u)
	}
	return mu + sigma*(math.Pow(u, -xi)-1)/xi
}
