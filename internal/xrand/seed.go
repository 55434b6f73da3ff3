package xrand

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
)

// Seed is a uniformly random string of n bits held as a value: the
// xoshiro256** state it was drawn from plus its length, 40 bytes whatever n
// is. Its bits are the next ⌈n/64⌉ outputs of that state, little-endian (bit
// i is word i/64, bit i%64), with the unused high bits of the last word
// zero.
//
// The seed agreement service (Section 3 of the paper) hands every node a
// seed from S = {0,1}^κ, and LBAlg consumes the committed seed in lockstep
// across every node that committed to the same owner. A value makes that
// sharing trivial: committers copy it, and each regenerates the same words
// wherever it decodes.
//
// Seeds compare with ==. Equal seeds have equal bits; two draws from
// different states may share the bits of a short seed and still differ.
type Seed struct {
	s [4]uint64
	n int
}

// DrawSeed draws a uniformly random n-bit seed. It advances r exactly as
// reading ⌈n/64⌉ words with Uint64 does, so every later draw from r is the
// same whether or not the words are ever generated. It panics if n < 0.
//
// The loop is Uint64's state transition on four local words, without the
// output scrambler whose results it would discard, and stores the state
// once.
func (r *Source) DrawSeed(n int) Seed {
	if n < 0 {
		panic("xrand: DrawSeed called with negative length")
	}
	sd := Seed{s: r.s, n: n}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := (n + 63) / 64; i > 0; i-- {
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return sd
}

// Len returns the length in bits.
func (sd Seed) Len() int { return sd.n }

// Words regenerates the seed's ⌈n/64⌉ words into dst, reusing its capacity
// when it suffices, and returns them. Callers that decode often pass a
// stack buffer, so regeneration does not allocate.
func (sd Seed) Words(dst []uint64) []uint64 {
	w := (sd.n + 63) / 64
	if cap(dst) < w {
		dst = make([]uint64, w)
	}
	dst = dst[:w]
	src := Source{s: sd.s}
	for i := range dst {
		dst[i] = src.Uint64()
	}
	if rem := sd.n % 64; rem != 0 {
		dst[w-1] &= 1<<uint(rem) - 1
	}
	return dst
}

// Ones returns the number of set bits.
func (sd Seed) Ones() int {
	total := 0
	for _, w := range sd.Words(nil) {
		total += bits.OnesCount64(w)
	}
	return total
}

// String renders the seed as bits[n] followed by its bytes in hex, first
// byte first, for debugging and trace output. Seeds longer than 128 bits
// show their first 16 bytes and an ellipsis.
func (sd Seed) String() string {
	const shown = 128
	head := Seed{s: sd.s, n: min(sd.n, shown)}
	var w [2]uint64
	var buf [16]byte
	for i, x := range head.Words(w[:0]) {
		binary.LittleEndian.PutUint64(buf[8*i:], x)
	}
	s := hex.EncodeToString(buf[:(head.n+7)/8])
	if sd.n > shown {
		s += "…"
	}
	return fmt.Sprintf("bits[%d]%s", sd.n, s)
}
