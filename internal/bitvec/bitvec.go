// Package bitvec implements packed binary vectors used to represent player
// preference vectors throughout the collaborative scoring system.
//
// A Vector stores n bits in ⌈n/64⌉ machine words. All distance computations
// in the protocols reduce to Hamming distance between such vectors, so the
// word-parallel popcount implementation here is the hot path of every
// experiment.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length packed bit vector. The zero value is an empty
// vector of length 0; use New to create a vector of a given length.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed Vector of length n. It panics if n is negative.
func New(n int) Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromBools builds a Vector from a boolean slice.
func FromBools(b []bool) Vector {
	v := New(len(b))
	for i, x := range b {
		if x {
			v.Set(i, true)
		}
	}
	return v
}

// FromBits builds a Vector from a slice of 0/1 integers. Any nonzero entry
// is treated as 1.
func FromBits(b []int) Vector {
	v := New(len(b))
	for i, x := range b {
		if x != 0 {
			v.Set(i, true)
		}
	}
	return v
}

// Len returns the number of bits in the vector.
func (v Vector) Len() int { return v.n }

// Words returns the number of 64-bit words backing the vector, ⌈Len/64⌉.
// Word-level protocol code (bulk probes, board lane tallies) iterates
// [0, Words()) and addresses bit i as word i/64, bit i%64.
func (v Vector) Words() int { return len(v.words) }

// Word returns backing word wi. Bits of the final word past Len are
// always zero. It panics if wi is out of range.
func (v Vector) Word(wi int) uint64 { return v.words[wi] }

// SetWord assigns backing word wi, masking off bits past Len so the
// vector's tail invariant (Count/Hamming never see garbage) holds.
// It panics if wi is out of range.
func (v Vector) SetWord(wi int, w uint64) {
	v.words[wi] = w & v.WordMask(wi)
}

// WordMask returns the mask of valid (in-range) bits for backing word wi:
// all ones except in the final word of a vector whose length is not a
// multiple of 64. It panics if wi is out of range.
func (v Vector) WordMask(wi int) uint64 {
	if wi < 0 || wi >= len(v.words) {
		panic(fmt.Sprintf("bitvec: word %d out of range [0,%d)", wi, len(v.words)))
	}
	if wi == len(v.words)-1 && v.n%wordBits != 0 {
		return (1 << (uint(v.n) % wordBits)) - 1
	}
	return ^uint64(0)
}

// SameStorage reports whether v and w share the same backing words — i.e.
// mutating one mutates the other. Protocol code that hands one immutable
// vector to many players (the workshare majority) uses it in tests to pin
// the sharing; two empty vectors never share.
func SameStorage(v, w Vector) bool {
	return len(v.words) > 0 && len(w.words) > 0 && &v.words[0] == &w.words[0]
}

// Get returns bit i. It panics if i is out of range.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set assigns bit i. It panics if i is out of range.
func (v Vector) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip inverts bit i. It panics if i is out of range.
func (v Vector) Flip(i int) {
	v.check(i)
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Zero clears every bit of v in place.
func (v Vector) Zero() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// CopyFrom overwrites v's bits with w's. It panics if lengths differ.
func (v Vector) CopyFrom(w Vector) {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
	copy(v.words, w.words)
}

// Equal reports whether v and w have the same length and bits.
func (v Vector) Equal(w Vector) bool {
	if v.n != w.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != w.words[i] {
			return false
		}
	}
	return true
}

// Hamming returns the Hamming distance |v − w|, the number of positions on
// which the two vectors differ. It panics if lengths differ.
func (v Vector) Hamming(w Vector) int {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
	d := 0
	for i := range v.words {
		d += bits.OnesCount64(v.words[i] ^ w.words[i])
	}
	return d
}

// Count returns the number of set bits (population count).
func (v Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Xor returns a new vector v ⊕ w. It panics if lengths differ.
func (v Vector) Xor(w Vector) Vector {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] ^ w.words[i]
	}
	return out
}

// And returns a new vector v ∧ w. It panics if lengths differ.
func (v Vector) And(w Vector) Vector {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] & w.words[i]
	}
	return out
}

// AndCount returns the number of positions set in both v and w — the
// population count of v ∧ w without materializing it. It is the
// allocation-free form of v.And(w).Count(), which the cluster peel calls
// once per scanned candidate per round (a fresh n-bit vector each time
// before this existed). It panics if lengths differ.
func (v Vector) AndCount(w Vector) int {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
	c := 0
	for i := range v.words {
		c += bits.OnesCount64(v.words[i] & w.words[i])
	}
	return c
}

// AndOnesInto appends the sorted positions set in both v and w to dst and
// returns the extended slice — the allocation-free form of
// v.And(w).OnesIndices() for callers that reuse dst across calls. It
// panics if lengths differ.
func (v Vector) AndOnesInto(w Vector, dst []int) []int {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
	for wi := range v.words {
		for x := v.words[wi] & w.words[wi]; x != 0; x &= x - 1 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(x))
		}
	}
	return dst
}

// Or returns a new vector v ∨ w. It panics if lengths differ.
func (v Vector) Or(w Vector) Vector {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] | w.words[i]
	}
	return out
}

// Not returns the bitwise complement of v (restricted to its length).
func (v Vector) Not() Vector {
	out := New(v.n)
	for i := range v.words {
		out.words[i] = ^v.words[i]
	}
	out.maskTail()
	return out
}

// maskTail zeroes the unused bits of the final word so that Count and
// Hamming never see garbage past position n.
func (v Vector) maskTail() {
	if v.n%wordBits != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << (uint(v.n) % wordBits)) - 1
	}
}

// FirstDiff returns the smallest position where v and w differ, or -1 if
// the vectors are equal. It is equivalent to inspecting DiffIndices()[0]
// without allocating the full difference list — the probe-to-eliminate
// loop of ZeroRadius only ever needs one disagreement at a time.
// It panics if lengths differ.
func (v Vector) FirstDiff(w Vector) int {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
	for wi := range v.words {
		if x := v.words[wi] ^ w.words[wi]; x != 0 {
			return wi*wordBits + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// DiffIndices returns the sorted positions where v and w differ. It panics
// if lengths differ. The result has length v.Hamming(w).
func (v Vector) DiffIndices(w Vector) []int {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
	var out []int
	for wi := range v.words {
		x := v.words[wi] ^ w.words[wi]
		for x != 0 {
			b := bits.TrailingZeros64(x)
			out = append(out, wi*wordBits+b)
			x &= x - 1
		}
	}
	return out
}

// OnesIndices returns the sorted positions of set bits.
func (v Vector) OnesIndices() []int {
	var out []int
	for wi := range v.words {
		x := v.words[wi]
		for x != 0 {
			b := bits.TrailingZeros64(x)
			out = append(out, wi*wordBits+b)
			x &= x - 1
		}
	}
	return out
}

// Gather extracts the bits at the given positions into a new vector of
// length len(idx). Position idx[j] of v becomes bit j of the result. Its
// inverse, for a list compiled once and applied to many vectors, is
// Extraction.Scatter.
func (v Vector) Gather(idx []int) Vector {
	out := New(len(idx))
	for j, i := range idx {
		if v.Get(i) {
			out.Set(j, true)
		}
	}
	return out
}

// Key returns a compact string usable as a map key: two vectors have equal
// keys iff they are Equal. The encoding is the raw little-endian words plus
// the length, so it is cheap to compute and collision-free.
func (v Vector) Key() string {
	buf := make([]byte, 0, 8*len(v.words)+4)
	for _, w := range v.words {
		buf = append(buf,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	buf = append(buf, byte(v.n), byte(v.n>>8), byte(v.n>>16), byte(v.n>>24))
	return string(buf)
}

// String renders the vector as a 0/1 string, truncated for long vectors.
func (v Vector) String() string {
	var sb strings.Builder
	limit := v.n
	trunc := false
	if limit > 128 {
		limit = 128
		trunc = true
	}
	for i := 0; i < limit; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if trunc {
		fmt.Fprintf(&sb, "…(+%d)", v.n-128)
	}
	return sb.String()
}
