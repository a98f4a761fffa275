package util

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). Every stochastic choice in the simulator flows through an
// RNG seeded from the experiment configuration, which makes whole-system
// runs bit-reproducible.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("util: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free bound is overkill here; a
	// simple modulo is fine because n is tiny relative to 2^64 in all our
	// uses, but we still debias for correctness.
	max := uint64(n)
	limit := ^uint64(0) - ^uint64(0)%max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
