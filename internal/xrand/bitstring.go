package xrand

import (
	"encoding/hex"
	"fmt"
)

// BitString is a fixed-length string of bits with a consumption cursor.
//
// The seed agreement service (Section 3 of the paper) hands every node a
// seed drawn from the domain S = {0,1}^κ. The local broadcast algorithm then
// consumes bits from the committed seed in lockstep across all nodes that
// committed to the same owner: as long as two nodes consume the same number
// of bits per round — which LBAlg guarantees within an owner group — they
// observe identical values and therefore make identical shared random
// choices. BitString implements exactly that: immutable bit content plus a
// mutable cursor.
type BitString struct {
	words []uint64
	n     int // length in bits
	cur   int // next unconsumed bit index
}

// NewBitString draws a uniformly random bit string of length n from src.
func NewBitString(src *Source, n int) *BitString {
	if n < 0 {
		panic("xrand: NewBitString called with negative length")
	}
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = src.Uint64()
	}
	// Zero the unused high bits of the last word so that equality and
	// serialisation are canonical.
	if rem := n % 64; rem != 0 && len(words) > 0 {
		words[len(words)-1] &= (1 << uint(rem)) - 1
	}
	return &BitString{words: words, n: n}
}

// BitStringFromWords builds a bit string of length n over the given words.
// The slice is copied; unused high bits are cleared. It panics if the words
// cannot hold n bits.
func BitStringFromWords(words []uint64, n int) *BitString {
	if n < 0 || (n+63)/64 > len(words) {
		panic("xrand: BitStringFromWords length mismatch")
	}
	w := make([]uint64, (n+63)/64)
	copy(w, words)
	if rem := n % 64; rem != 0 && len(w) > 0 {
		w[len(w)-1] &= (1 << uint(rem)) - 1
	}
	return &BitString{words: w, n: n}
}

// Len returns the total length in bits.
func (b *BitString) Len() int { return b.n }

// Remaining returns the number of unconsumed bits.
func (b *BitString) Remaining() int { return b.n - b.cur }

// Reset rewinds the consumption cursor to the beginning.
func (b *BitString) Reset() { b.cur = 0 }

// Bit returns bit i (0-indexed from the front of the string).
func (b *BitString) Bit(i int) int {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("xrand: Bit index %d out of range [0,%d)", i, b.n))
	}
	return int(b.words[i/64] >> (uint(i) % 64) & 1)
}

// Consume removes the next k bits from the front of the unconsumed region
// and returns them packed little-endian (the first consumed bit is the least
// significant). It reports ok=false, consuming nothing, if fewer than k bits
// remain or k is outside [0, 64].
//
// LBAlg sizes κ so that a phase can never exhaust its seed; the ok result is
// a defensive contract, not an expected path.
func (b *BitString) Consume(k int) (v uint64, ok bool) {
	if k < 0 || k > 64 || b.Remaining() < k {
		return 0, false
	}
	if k == 0 {
		return 0, true
	}
	// Little-endian extraction straight from the word array: the k bits
	// span at most two words.
	i, off := b.cur/64, uint(b.cur)%64
	v = b.words[i] >> off
	if rem := 64 - int(off); rem < k {
		v |= b.words[i+1] << uint(rem)
	}
	if k < 64 {
		v &= 1<<uint(k) - 1
	}
	b.cur += k
	return v, true
}

// ConsumeMany consumes len(dst) successive k-bit fields from the front of
// the unconsumed region, filling dst little-endian exactly as len(dst)
// repeated Consume(k) calls would. It is all-or-nothing: if fewer than
// len(dst)·k bits remain or k is outside [0, 64], it reports ok=false and
// consumes nothing. The bulk loop keeps the cursor in a register and pays
// the range check once instead of per field.
func (b *BitString) ConsumeMany(k int, dst []uint64) (ok bool) {
	if k < 0 || k > 64 || b.Remaining() < k*len(dst) {
		return false
	}
	if k == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return true
	}
	cur := b.cur
	mask := ^uint64(0)
	if k < 64 {
		mask = 1<<uint(k) - 1
	}
	for i := range dst {
		j, off := cur/64, uint(cur)%64
		v := b.words[j] >> off
		if rem := 64 - int(off); rem < k {
			v |= b.words[j+1] << uint(rem)
		}
		dst[i] = v & mask
		cur += k
	}
	b.cur = cur
	return true
}

// Words exposes the backing word array: bit i of the string is
// words[i/64] >> (i%64) & 1, and unused high bits of the final word are
// zero. The slice aliases b's storage and must be treated as read-only; it
// exists — in the spirit of math/big.Int.Bits — so batch decoders (the
// protocol layer's once-per-phase coin pass) can run a word-level loop
// with the cursor in locals instead of a cursor-checked Consume call per
// field. Pair with Offset to find the next unconsumed bit and Skip to
// commit how far the batch read, or keep cursors of your own over the
// shared words, as the protocol layer's state bank does.
func (b *BitString) Words() []uint64 { return b.words }

// Offset returns the consumption cursor: the index of the next unconsumed
// bit (Len()−Remaining()).
func (b *BitString) Offset() int { return b.cur }

// Skip advances the cursor k bits without extracting them — the commit
// step of a Words/Offset batch decode. Like Consume it is all-or-nothing:
// it reports false, moving nothing, if k is negative or fewer than k bits
// remain.
func (b *BitString) Skip(k int) bool {
	if k < 0 || b.Remaining() < k {
		return false
	}
	b.cur += k
	return true
}

// Clone returns a copy sharing no state with b, including the cursor
// position. Per-node LBAlg nodes that commit to the same owner's seed each
// hold their own clone so cursors advance independently (core's state bank
// keeps per-node cursors over the shared words instead).
func (b *BitString) Clone() *BitString {
	words := make([]uint64, len(b.words))
	copy(words, b.words)
	return &BitString{words: words, n: b.n, cur: b.cur}
}

// Refill redraws b's contents in place from src and rewinds the cursor. It
// draws exactly the words NewBitString(src, b.Len()) would, so a Refill is
// interchangeable with a fresh allocation on the same randomness stream —
// the allocation-free path for callers that redraw a seed every phase.
// Any other holder of b observes the mutation; callers must own b
// exclusively or know every alias is dead (LBAlg clones committed seeds
// before the owner's next refill).
func (b *BitString) Refill(src *Source) {
	for i := range b.words {
		b.words[i] = src.Uint64()
	}
	if rem := b.n % 64; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
	b.cur = 0
}

// CopyFrom overwrites b with o's contents, length and cursor — an
// allocation-free Clone into an existing bit string. The word buffer is
// reused when capacities allow.
func (b *BitString) CopyFrom(o *BitString) {
	if cap(b.words) < len(o.words) {
		b.words = make([]uint64, len(o.words))
	}
	b.words = b.words[:len(o.words)]
	copy(b.words, o.words)
	b.n = o.n
	b.cur = o.cur
}

// Equal reports whether two bit strings have identical content (cursor
// positions are ignored).
func (b *BitString) Equal(o *BitString) bool {
	if o == nil || b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Ones returns the number of set bits.
func (b *BitString) Ones() int {
	total := 0
	for i := 0; i < b.n; i++ {
		total += b.Bit(i)
	}
	return total
}

// String renders the content as hex for debugging. Long strings are
// truncated with an ellipsis.
func (b *BitString) String() string {
	buf := make([]byte, 0, len(b.words)*8)
	for _, w := range b.words {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
	}
	if len(buf)*8 > b.n {
		buf = buf[:(b.n+7)/8]
	}
	s := hex.EncodeToString(buf)
	const maxLen = 32
	if len(s) > maxLen {
		s = s[:maxLen] + "…"
	}
	return fmt.Sprintf("bits[%d]%s", b.n, s)
}
