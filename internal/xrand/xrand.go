package xrand

import "math/bits"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for deriving independent child streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic random number generator. It is not safe for
// concurrent use; each goroutine (each simulated process) owns its own
// Source.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed. Distinct seeds yield
// independent-looking streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	// xoshiro256** must not be seeded with the all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Split derives a new Source from this one, keyed by id. Streams derived
// with distinct ids are independent of each other and of the parent, and the
// derivation does not advance the parent stream. This is how per-node
// streams are produced from a single experiment seed.
func (r *Source) Split(id uint64) *Source {
	// Mix the parent state with the id through SplitMix64 so that
	// (parent, id) pairs map to well-separated seeds.
	sm := r.s[0] ^ bits.RotateLeft64(r.s[2], 17) ^ (id * 0xd1342543de82ef95)
	var src Source
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers control n and a non-positive value is a
// programming error, not an input error.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded rejection sampling.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Coin returns true with probability p. Values p <= 0 always return false
// and p >= 1 always return true.
func (r *Source) Coin(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bits returns k uniform random bits as the low bits of a uint64.
// It panics if k is outside [0, 64].
func (r *Source) Bits(k int) uint64 {
	if k < 0 || k > 64 {
		panic("xrand: Bits called with k outside [0, 64]")
	}
	if k == 0 {
		return 0
	}
	return r.Uint64() >> (64 - uint(k))
}

// NodeSource returns the canonical per-node stream for the given experiment
// seed and node index. All simulator components use this single derivation
// so that a configuration plus a seed fully determines an execution.
func NodeSource(seed uint64, node int) *Source {
	return New(seed).Split(0x4e4f4445 ^ uint64(node)*0x9e3779b97f4a7c15 + uint64(node))
}
