package gillespie

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// RNG is the SSA engines' random source: a PCG DXSM generator (128-bit
// LCG state, 64-bit multiplier output hash) with fully exportable state.
//
// It replaces math/rand.Rand, whose ~5KB lagged-Fibonacci state cannot be
// marshalled, because the durability layer needs to checkpoint a live
// trajectory mid-run and later resume it bit-identically: the entire
// generator is 16 bytes of state, captured by MarshalBinary and restored
// by UnmarshalBinary, and the stream after a restore is exactly the
// stream the original generator would have produced.
//
// The generator is self-contained (no dependency on math/rand/v2's
// unexported details), so the golden trajectory hashes pinned in
// golden_test.go stay stable across Go releases.
type RNG struct {
	hi, lo uint64 // 128-bit LCG state
}

// 128-bit LCG constants (multiplier from PCG's default 128-bit stream,
// increment an arbitrary odd constant).
const (
	rngMulHi = 2549297995355413924
	rngMulLo = 4865540595714422341
	rngIncHi = 6364136223846793005
	rngIncLo = 1442695040888963407
)

// NewRNG returns a generator seeded from seed. The 64-bit seed is
// expanded into the 128-bit state with two rounds of splitmix64, so
// nearby seeds (the per-trajectory BaseSeed+traj scheme) land in
// uncorrelated streams.
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed sets r to the state NewRNG(seed) starts from — in place, so an
// engine can hold its generator by value.
func (r *RNG) seed(seed int64) {
	s := uint64(seed)
	r.hi = splitmix64(&s)
	r.lo = splitmix64(&s) | 1
	// Warm the state through one step so the first output already mixes
	// both words.
	r.Uint64()
}

// splitmix64 is the standard seed expander.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 advances the LCG one step and hashes the state into 64 output
// bits (the DXSM "double xorshift multiply" output function).
func (r *RNG) Uint64() uint64 {
	// state = state*mul + inc, in 128 bits.
	hi, lo := bits.Mul64(r.lo, rngMulLo)
	hi += r.hi*rngMulLo + r.lo*rngMulHi
	var c uint64
	lo, c = bits.Add64(lo, rngIncLo, 0)
	hi, _ = bits.Add64(hi, rngIncHi, c)
	r.hi, r.lo = hi, lo

	const cheapMul = 0xda942042e4dd58b5
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= lo | 1
	return hi
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an Exp(1) draw by inversion: -ln(1-U). Inversion is
// chosen over the ziggurat because it consumes exactly one uniform per
// draw and carries no rejection state — a marshalled generator resumes
// mid-trajectory with a bit-identical stream.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log1p(-r.Float64())
}

// rngStateSize is the marshalled size: two 64-bit state words.
const rngStateSize = 16

// MarshalBinary captures the complete generator state (16 bytes).
func (r *RNG) MarshalBinary() ([]byte, error) {
	out := make([]byte, rngStateSize)
	binary.LittleEndian.PutUint64(out[0:8], r.hi)
	binary.LittleEndian.PutUint64(out[8:16], r.lo)
	return out, nil
}

// UnmarshalBinary restores a state captured by MarshalBinary.
func (r *RNG) UnmarshalBinary(data []byte) error {
	if len(data) != rngStateSize {
		return fmt.Errorf("gillespie: RNG state is %d bytes, want %d", len(data), rngStateSize)
	}
	r.hi = binary.LittleEndian.Uint64(data[0:8])
	r.lo = binary.LittleEndian.Uint64(data[8:16])
	return nil
}
