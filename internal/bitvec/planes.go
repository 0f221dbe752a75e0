package bitvec

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// MaxPlaneBits bounds the per-value bit width of a Planes. Rating scales in
// this repository are small integers; 32 planes already cover scales past
// 4·10⁹ while keeping per-word plane scratch (the bit-sliced L1's, the
// rating world's word gather) on the stack.
const MaxPlaneBits = 32

// Planes is a bit-sliced vector of k-bit unsigned integer values: element i
// is stored as one bit in each of k planes, where plane ℓ holds bit ℓ of
// every element. It is the rating-scale counterpart of Vector (DESIGN.md
// §12): the §8 non-binary protocols re-encode their 0..scale rating rows as
// ⌈log₂(scale+1)⌉ such planes, so the L1 distances that dominate the rating
// hot path collapse to word-level plane arithmetic instead of per-element
// loops.
//
// All planes share one flat backing slice (plane ℓ occupies words
// [ℓ·stride, (ℓ+1)·stride)), so a Planes costs one allocation regardless of
// k. The zero value is an empty Planes of length 0; use NewPlanes or
// PlanesForScale.
type Planes struct {
	n      int // number of values
	k      int // bits per value
	stride int // words per plane, ⌈n/64⌉
	words  []uint64
}

// PlaneBits returns the number of bit-planes needed for values in
// [0, scale]: ⌈log₂(scale+1)⌉, at least 1.
func PlaneBits(scale int) int {
	if scale < 0 {
		panic("bitvec: negative scale")
	}
	k := bits.Len(uint(scale))
	if k < 1 {
		k = 1
	}
	return k
}

// NewPlanes returns a zeroed Planes of n values of k bits each. It panics
// if n is negative or k is outside [1, 32].
func NewPlanes(n, k int) Planes {
	stride := planesStride(n, k)
	return Planes{n: n, k: k, stride: stride, words: make([]uint64, k*stride)}
}

// PlanesIn returns a Planes of n values of k bits backed by the first
// k·⌈n/64⌉ words of buf, which it does not clear: the values are whatever
// those words hold. It lets a caller carve a Planes and other words out of
// one allocation. It panics if buf is too short, or as NewPlanes does.
func PlanesIn(buf []uint64, n, k int) Planes {
	stride := planesStride(n, k)
	if len(buf) < k*stride {
		panic(fmt.Sprintf("bitvec: %d words for %d planes of %d values", len(buf), k, n))
	}
	return Planes{n: n, k: k, stride: stride, words: buf[: k*stride : k*stride]}
}

// planesStride checks a Planes shape and returns its words per plane.
func planesStride(n, k int) int {
	if n < 0 {
		panic("bitvec: negative length")
	}
	if k < 1 || k > MaxPlaneBits {
		panic(fmt.Sprintf("bitvec: plane count %d outside [1,%d]", k, MaxPlaneBits))
	}
	return (n + wordBits - 1) / wordBits
}

// PlanesForScale returns a zeroed Planes sized for n values in [0, scale].
func PlanesForScale(n, scale int) Planes { return NewPlanes(n, PlaneBits(scale)) }

// Len returns the number of values.
func (pl Planes) Len() int { return pl.n }

// Bits returns the per-value bit width k.
func (pl Planes) Bits() int { return pl.k }

// Stride returns the number of 64-bit words per plane, ⌈Len/64⌉. Word-level
// code addresses value i as word i/64, bit i%64 of each plane.
func (pl Planes) Stride() int { return pl.stride }

// PlaneWord returns word wi of plane ℓ. Bits past Len are always zero.
func (pl Planes) PlaneWord(l, wi int) uint64 { return pl.words[l*pl.stride+wi] }

// SetPlaneWord assigns word wi of plane ℓ, masking off bits past Len.
func (pl Planes) SetPlaneWord(l, wi int, w uint64) {
	pl.words[l*pl.stride+wi] = w & pl.wordMask(wi)
}

// Plane returns plane ℓ as a Vector sharing pl's storage: bit i of the
// Vector is bit ℓ of value i, and writes through either show in both.
func (pl Planes) Plane(l int) Vector {
	if l < 0 || l >= pl.k {
		panic(fmt.Sprintf("bitvec: plane %d outside [0,%d)", l, pl.k))
	}
	return Vector{n: pl.n, words: pl.words[l*pl.stride : (l+1)*pl.stride : (l+1)*pl.stride]}
}

// wordMask returns the valid-bit mask for word wi of any plane.
func (pl Planes) wordMask(wi int) uint64 {
	if wi == pl.stride-1 && pl.n%wordBits != 0 {
		return (1 << (uint(pl.n) % wordBits)) - 1
	}
	return ^uint64(0)
}

// WordMask returns the mask of valid (in-range) bits for word wi of any
// plane: all ones except in the final word when Len is not a multiple of 64.
func (pl Planes) WordMask(wi int) uint64 {
	if wi < 0 || wi >= pl.stride {
		panic(fmt.Sprintf("bitvec: word %d out of range [0,%d)", wi, pl.stride))
	}
	return pl.wordMask(wi)
}

// Get returns value i.
func (pl Planes) Get(i int) int {
	pl.check(i)
	wi, bit := i/wordBits, uint(i)%wordBits
	v := 0
	for l := 0; l < pl.k; l++ {
		v |= int(pl.words[l*pl.stride+wi]>>bit&1) << l
	}
	return v
}

// Set assigns value i. It panics if v does not fit in k bits.
func (pl Planes) Set(i, v int) {
	pl.check(i)
	if v < 0 || v >= 1<<pl.k {
		panic(fmt.Sprintf("bitvec: value %d does not fit in %d planes", v, pl.k))
	}
	wi, mask := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	for l := 0; l < pl.k; l++ {
		if v>>l&1 == 1 {
			pl.words[l*pl.stride+wi] |= mask
		} else {
			pl.words[l*pl.stride+wi] &^= mask
		}
	}
}

func (pl Planes) check(i int) {
	if i < 0 || i >= pl.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, pl.n))
	}
}

// L1 returns the L1 distance Σᵢ |a_i − b_i| between two equal-shape Planes.
// It is the hot distance measure of the §8 rating protocols, computed
// word-parallel over 64 values at a time with bit-sliced arithmetic: a
// borrow-propagating subtract across the planes (k XOR/AND ops per word)
// yields a−b mod 2ᵏ per lane plus the borrow mask of lanes where a < b;
// conditionally negating exactly those lanes (bit-sliced two's complement)
// gives |a−b|, and the total is the plane-weighted popcount Σ_ℓ 2^ℓ·pop(rℓ).
// It panics on shape mismatch.
func (a Planes) L1(b Planes) int { return a.l1(b, nil, math.MaxInt) }

// L1Within reports whether a.L1(b) ≤ limit. It runs L1's kernel but stops
// after the first 64-value word whose running total exceeds limit, so a
// pair far apart costs one word instead of the whole row — in a
// neighbor-graph sweep, the pairs its pivot bounds leave undecided and the
// pairs of an input without cluster structure. It panics on shape
// mismatch.
func (a Planes) L1Within(b Planes, limit int) bool { return a.l1(b, nil, limit) <= limit }

// MaskedL1 returns Σ |a_i − b_i| over the positions i whose bit is set in
// mask, a bitmap of Stride() words (bit i%64 of word i/64). It runs L1's
// kernel and counts only the masked lanes, so values outside the mask do
// not matter — a spot check compares a candidate row with truth probed on
// its check set alone. It panics on shape mismatch or a mask of the wrong
// length.
func (a Planes) MaskedL1(b Planes, mask []uint64) int {
	if len(mask) != a.stride {
		panic(fmt.Sprintf("bitvec: mask of %d words for %d-word planes", len(mask), a.stride))
	}
	return a.l1(b, mask, math.MaxInt)
}

// l1 is the L1 kernel: over the lanes that mask keeps (every lane when
// mask is nil), it returns the running total as soon as it exceeds limit
// after a word, and the exact L1 distance otherwise. A masked word clears
// its dropped lanes' differences and borrows after the subtract, so they
// negate to zero; the unmasked path pays one predictable branch per word
// for it.
//
// The negate pass needs the final borrow, so the subtract keeps each
// plane's difference in a stack array. Go zeroes it on every call, a
// fixed cost of every pair an early exit decides in a word or two, so it
// is kept to narrowPlanes words (64 bytes, four stores); wider values
// take l1Wide.
func (a Planes) l1(b Planes, mask []uint64, limit int) int {
	if a.n != b.n || a.k != b.k {
		panic(fmt.Sprintf("bitvec: planes shape mismatch %d×%d vs %d×%d", a.n, a.k, b.n, b.k))
	}
	if a.k > narrowPlanes {
		return a.l1Wide(b, mask, limit)
	}
	aw, bw := a.words, b.words[:len(a.words)]
	var diff [narrowPlanes]uint64
	total := 0
	for wi := 0; wi < a.stride; wi++ {
		// Plane ℓ's word wi sits at aw[ℓ·stride+wi].
		var borrow uint64
		l := 0
		for i := wi; i < len(aw); i += a.stride {
			x := aw[i] ^ bw[i]
			diff[l&(narrowPlanes-1)] = x ^ borrow // l < k ≤ 8; the mask drops the bounds check
			borrow = (^aw[i] & bw[i]) | (^x & borrow)
			l++
		}
		if mask != nil {
			keep := mask[wi]
			for l := range diff[:a.k] {
				diff[l] &= keep
			}
			borrow &= keep
		}
		// borrow now flags the lanes where a < b; negate exactly those.
		neg := borrow
		carry := neg
		for l, d := range diff[:a.k] {
			t := d ^ neg
			r := t ^ carry
			carry = t & carry
			total += bits.OnesCount64(r) << l
		}
		if total > limit {
			break
		}
	}
	return total
}

// narrowPlanes is the widest value (8 bits, rating scales up to 255) whose
// plane differences l1 keeps on the stack.
const narrowPlanes = 8

// l1Wide is l1 for values wider than narrowPlanes bits, with no scratch:
// each word runs the borrow chain twice, first alone for the final borrow,
// then again, negating each plane's difference as the chain produces it.
func (a Planes) l1Wide(b Planes, mask []uint64, limit int) int {
	aw, bw := a.words, b.words[:len(a.words)]
	total := 0
	for wi := 0; wi < a.stride; wi++ {
		keep := ^uint64(0)
		if mask != nil {
			keep = mask[wi]
		}
		var borrow uint64
		for i := wi; i < len(aw); i += a.stride {
			borrow = (^aw[i] & bw[i]) | (^(aw[i] ^ bw[i]) & borrow)
		}
		neg := borrow & keep
		carry := neg
		borrow = 0
		l := 0
		for i := wi; i < len(aw); i += a.stride {
			x := aw[i] ^ bw[i]
			t := (x^borrow)&keep ^ neg
			borrow = (^aw[i] & bw[i]) | (^x & borrow)
			r := t ^ carry
			carry = t & carry
			total += bits.OnesCount64(r) << l
			l++
		}
		if total > limit {
			break
		}
	}
	return total
}

// SubFrom returns a new Planes holding c − vᵢ for every value vᵢ of pl,
// computed word-parallel with a bit-sliced borrow-propagating subtract —
// the §8 worst-case "mirror every rating" broadcast (scale − truth)
// without a per-element loop. Every value must satisfy vᵢ ≤ c (and c must
// fit in the plane width); a violating lane would wrap, so it panics.
func (pl Planes) SubFrom(c int) Planes {
	if c < 0 || c >= 1<<pl.k {
		panic(fmt.Sprintf("bitvec: minuend %d does not fit in %d planes", c, pl.k))
	}
	out := NewPlanes(pl.n, pl.k)
	stride := pl.stride
	for wi := 0; wi < stride; wi++ {
		valid := pl.wordMask(wi)
		var borrow uint64
		for l := 0; l < pl.k; l++ {
			var aw uint64
			if c>>l&1 == 1 {
				aw = valid
			}
			bw := pl.words[l*stride+wi]
			x := aw ^ bw
			out.words[l*stride+wi] = x ^ borrow
			borrow = (^aw & bw) | (^x & borrow)
		}
		if borrow&valid != 0 {
			panic(fmt.Sprintf("bitvec: SubFrom(%d) underflow — a value exceeds the minuend", c))
		}
	}
	return out
}

// Gather extracts the values at the given positions into a new Planes of
// length len(idx): position idx[j] becomes value j of the result.
func (pl Planes) Gather(idx []int) Planes {
	out := NewPlanes(len(idx), pl.k)
	for j, i := range idx {
		out.Set(j, pl.Get(i))
	}
	return out
}

// Clone returns a deep copy.
func (pl Planes) Clone() Planes {
	out := Planes{n: pl.n, k: pl.k, stride: pl.stride, words: make([]uint64, len(pl.words))}
	copy(out.words, pl.words)
	return out
}

// CopyFrom overwrites pl's values with src's. It panics on shape mismatch.
func (pl Planes) CopyFrom(src Planes) {
	if pl.n != src.n || pl.k != src.k {
		panic(fmt.Sprintf("bitvec: planes shape mismatch %d×%d vs %d×%d", pl.n, pl.k, src.n, src.k))
	}
	copy(pl.words, src.words)
}

// Equal reports whether two Planes have the same shape and values.
func (pl Planes) Equal(other Planes) bool {
	if pl.n != other.n || pl.k != other.k {
		return false
	}
	for i := range pl.words {
		if pl.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// Ints materializes the values as a plain []int row (public-API use).
func (pl Planes) Ints() []int {
	return pl.AppendInts(make([]int, 0, pl.n))
}

// AppendInts appends the values to dst and returns it. It reads each
// plane word once per 64 values and decodes them eight at a time: up to 8
// planes, each plane's byte spreads through a table into one bit per byte
// lane, so a uint64 holds eight whole values; wider values assemble bit by
// bit. Neither path checks bounds or computes plane offsets per value.
func (pl Planes) AppendInts(dst []int) []int {
	dst = slices.Grow(dst, pl.n)
	out := dst[len(dst) : len(dst)+pl.n]
	var pw [MaxPlaneBits]uint64
	for wi := 0; wi < pl.stride; wi++ {
		for l := 0; l < pl.k; l++ {
			pw[l] = pl.words[l*pl.stride+wi]
		}
		vals := out[wi*wordBits : min(len(out), (wi+1)*wordBits)]
		if pl.k > 8 {
			for j := range vals {
				v := 0
				for l, w := range pw[:pl.k] {
					v |= int(w>>uint(j)&1) << l
				}
				vals[j] = v
			}
			continue
		}
		for g := 0; g < len(vals); g += 8 {
			var lanes uint64
			for l, w := range pw[:pl.k] {
				lanes |= spreadByte[uint8(w>>uint(g))] << l
			}
			if o := vals[g:]; len(o) >= 8 {
				o = o[:8]
				o[0], o[1], o[2], o[3] = int(lanes&0xFF), int(lanes>>8&0xFF), int(lanes>>16&0xFF), int(lanes>>24&0xFF)
				o[4], o[5], o[6], o[7] = int(lanes>>32&0xFF), int(lanes>>40&0xFF), int(lanes>>48&0xFF), int(lanes>>56)
			} else {
				for i := range o {
					o[i] = int(uint8(lanes >> (8 * uint(i))))
				}
			}
		}
	}
	return dst[:len(dst)+pl.n]
}

// spreadByte[b] moves bit i of b to bit 8·i, the low bit of byte lane i.
var spreadByte = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b] |= uint64(b>>i&1) << (8 * i)
		}
	}
	return t
}()

// FromInts builds a Planes over [0, scale] from an integer row. Values are
// clamped into [0, scale].
func FromInts(vals []int, scale int) Planes {
	out := PlanesForScale(len(vals), scale)
	for i, v := range vals {
		if v < 0 {
			v = 0
		}
		if v > scale {
			v = scale
		}
		out.Set(i, v)
	}
	return out
}

// SamePlaneStorage reports whether two Planes share backing words (mutating
// one mutates the other); tests use it to pin cluster-level sharing.
func SamePlaneStorage(a, b Planes) bool {
	return len(a.words) > 0 && len(b.words) > 0 && &a.words[0] == &b.words[0]
}
