package graph

// Rand is a small deterministic PRNG (splitmix64) used only for *workload
// generation* (graphs and palette lists). The coloring algorithms themselves
// are deterministic and never consume randomness at runtime.
//
// We avoid math/rand so that generated workloads are bit-stable across Go
// releases and platforms.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int64) int64 {
	if n <= 0 {
		panic("graph: Intn with non-positive bound")
	}
	// Rejection sampling for exact uniformity.
	bound := uint64(n)
	limit := intnLimit(bound)
	for {
		v := r.Uint64()
		if v < limit {
			return int64(v % bound)
		}
	}
}

// intnLimit is Intn's rejection limit for bound: the largest multiple of
// bound that fits in 64 bits. Draws at or above it are redrawn.
func intnLimit(bound uint64) uint64 { return (^uint64(0) / bound) * bound }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(int64(i + 1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
