// Package rng provides a deterministic, seedable pseudo-random number
// generator with cheap substream derivation.
//
// Every experiment in this repository must be exactly reproducible from a
// single integer seed, including experiments that fan out across goroutines.
// The standard library's math/rand/v2 generators are suitable for sampling
// but do not offer a stable cross-version stream-splitting scheme, so we
// implement the well-known xoshiro256** generator seeded via splitmix64,
// following the reference construction by Blackman and Vigna.
//
// The zero value of Source is not usable; construct one with New.
package rng

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Source is a xoshiro256** pseudo-random number generator.
//
// Source is not safe for concurrent use; derive one Source per goroutine
// with Split.
type Source struct {
	s [4]uint64
}

// ErrDegenerateState reports an all-zero internal state, which would make
// the generator emit zeros forever.
var ErrDegenerateState = errors.New("rng: degenerate all-zero state")

// splitmix64 advances the given state and returns the next output of the
// splitmix64 generator. It is used only for seeding.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	state := seed
	for i := range src.s {
		src.s[i] = splitmix64(&state)
	}
	// splitmix64 cannot emit four zeros from any state, so src is valid.
	return &src
}

// rotl rotates x left by k bits.
func rotl(x uint64, k uint) uint64 {
	return bits.RotateLeft64(x, int(k))
}

// Uint64 returns the next 64 uniformly distributed bits.
//
// The body is written to fit the compiler's inlining budget — the
// generator steps inline into the Bool-draw hot loops of the settling
// and shift kernels, where call overhead would otherwise dominate.
func (r *Source) Uint64() uint64 {
	s1 := r.s[1]
	r.s[2] ^= r.s[0]
	r.s[3] ^= s1
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= s1 << 17
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return bits.RotateLeft64(s1*5, 7) * 9
}

// FillUint64s fills buf with the next len(buf) outputs of the stream,
// advancing the state exactly as len(buf) sequential Uint64 calls would
// (property-tested stream-identical). The win over the loop it replaces
// is not the variates — they are identical — but the state residency:
// the four state words live in registers for the whole fill instead of
// round-tripping through memory on every draw, which is what makes the
// kernels' bulk draw buffers cheaper than per-draw generator steps.
func (r *Source) FillUint64s(buf []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range buf {
		buf[i] = bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// FillFloat64s fills buf with the next len(buf) uniform [0, 1) variates,
// advancing the state exactly as len(buf) sequential Float64 calls
// would — the matching float path of FillUint64s, with the identical
// 53-high-bit dyadic construction.
func (r *Source) FillFloat64s(buf []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range buf {
		w := bits.RotateLeft64(s1*5, 7) * 9
		buf[i] = float64(w>>11) * (1.0 / (1 << 53))
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// FillBelow decides the next 64·len(dst) outputs against thr: bit i of
// dst[w] is set iff output 64·w+i is below thr. It advances the state
// exactly as that many sequential Uint64 calls would, and equals
// FillUint64s followed by the threshold test without the buffer between
// them. Each word shifts its decisions in from the top, the borrow of
// output − thr into bit 63, which costs one constant shift per output.
func (r *Source) FillBelow(dst []uint64, thr uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for w := range dst {
		var word uint64
		for j := 0; j < 64; j++ {
			_, borrow := bits.Sub64(bits.RotateLeft64(s1*5, 7)*9, thr, 0)
			word = word>>1 | borrow<<63
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = bits.RotateLeft64(s3, 45)
		}
		dst[w] = word
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Split derives a new Source whose stream is independent of the parent's
// continued stream. The i-th call to Split on a given Source state yields a
// deterministic child; Split advances the parent.
func (r *Source) Split() *Source {
	// Jump-free splitting: hash the parent's next outputs through
	// splitmix64 so the child state shares no linear structure with the
	// parent's xoshiro orbit.
	state := r.Uint64()
	var child Source
	for i := range child.s {
		child.s[i] = splitmix64(&state)
	}
	return &child
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits give the standard dyadic uniform variate. Scaling by
	// the reciprocal is exact (a power-of-two exponent shift), so this is
	// bit-identical to dividing by 2^53 — and cheaper.
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return r.Float64() < p
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand; callers validate n at API boundaries.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Perm returns a uniformly random permutation of [0, n) using Fisher-Yates.
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

// NormFloat64 returns a standard normal variate via the polar Box-Muller
// method. It is used only for synthetic-noise experiments, not for any of
// the paper's processes.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// State returns a copy of the internal state, for checkpointing experiments.
func (r *Source) State() [4]uint64 {
	return r.s
}

// Restore sets the internal state to a previously captured checkpoint.
// It returns ErrDegenerateState if the state is all zeros.
func (r *Source) Restore(state [4]uint64) error {
	if state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0 {
		return ErrDegenerateState
	}
	r.s = state
	return nil
}
