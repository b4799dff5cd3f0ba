// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// The simulation must be exactly reproducible from a single 64-bit seed, and
// it must be possible to derive independent per-node and per-round streams so
// that rounds can be executed in parallel without changing the results. The
// generators here are based on SplitMix64 (for seed derivation and stateless
// hashing) and xoshiro256**-style state advancement (for sequential streams).
package rng

import "math/bits"

// splitmix64 advances the SplitMix64 state and returns the next output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fmix64 is the SplitMix64 output finalizer; it has full avalanche, so a
// one-bit change in z flips each output bit with probability about 1/2.
func fmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes an arbitrary sequence of 64-bit values into a single
// well-distributed 64-bit value. It is used to derive independent seeds for
// sub-streams (for example per-node or per-round streams) from a master seed.
// Every absorbed word passes through a full finalizer so that each input
// word independently avalanches into the result. Mix is defined in terms of
// MixPrefix/Finalize so the incremental API below cannot drift from it.
func Mix(values ...uint64) uint64 {
	return MixPrefix(values...).Finalize(len(values))
}

// Source is a deterministic pseudo-random number generator. The zero value is
// not usable; construct one with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// streams for all practical purposes.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source to the stream identified by seed.
func (r *Source) Reseed(seed uint64) {
	state := seed
	for i := range r.s {
		r.s[i] = splitmix64(&state)
	}
	// Avoid the (astronomically unlikely) all-zero state which is a fixed
	// point of xoshiro-style generators.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0;
// callers control n and a non-positive bound is always a programming error.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Unit maps 64 random bits onto a uniformly distributed float64 in [0, 1)
// with 53-bit precision. It is the single definition of the hash→[0,1)
// mapping the stateless decision contracts (per-call loss, transport drop
// and jitter injection) are documented against; the reference oracle
// deliberately re-implements it rather than sharing this code.
func Unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Source) Float64() float64 {
	return Unit(r.Uint64())
}

// Bernoulli returns true with probability p. Probabilities outside [0, 1] are
// clamped.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
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

// BoundedUint64 returns a stateless pseudo-random value in [0, n) derived from
// the given key values. It is used where parallel workers need per-item
// randomness that does not depend on evaluation order.
func BoundedUint64(n uint64, keys ...uint64) uint64 {
	return Bounded(Mix(keys...), n)
}

// MixState is a partially absorbed Mix computation. Hot paths that hash many
// values sharing a common prefix (for example the round engine, which hashes
// (seed, tag, round, initiator, attempt) once per node per round) absorb the
// prefix once and reuse the state; the result is bit-identical to calling Mix
// with the full key sequence.
type MixState uint64

// MixPrefix absorbs the given values and returns the intermediate state.
func MixPrefix(values ...uint64) MixState {
	state := uint64(0x243f6a8885a308d3) // pi fraction, arbitrary non-zero constant
	for _, v := range values {
		state = fmix64(state ^ fmix64(v))
	}
	return MixState(state)
}

// Absorb returns the state after absorbing one more value.
func (s MixState) Absorb(v uint64) MixState {
	return MixState(fmix64(uint64(s) ^ fmix64(v)))
}

// Finalize completes the hash. totalWords is the total number of absorbed
// words (prefix plus Absorb calls), matching Mix's length suffix.
func (s MixState) Finalize(totalWords int) uint64 {
	return fmix64(uint64(s) ^ uint64(totalWords))
}

// Bounded maps a finalized hash uniformly onto [0, n).
func Bounded(hash, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	hi, _ := bits.Mul64(hash, n)
	return hi
}
