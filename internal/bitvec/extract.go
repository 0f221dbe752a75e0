package bitvec

import (
	"fmt"
	"math/bits"
)

// Extraction is a compiled gather of a position list, and of the scatter
// that inverts it: value j of its output is the source value at position
// pos[j]. It is built once from the list and then applied to any number of
// sources read a word at a time — the rating publish compiles each
// diameter guess's sample once and every player's truth words flow
// through it (Extract), ZeroRadius's base case gathers each player's
// probed words through its leaf's list (ExtractWord), and ZeroRadius and
// SmallRadius assemble each player's vector by scattering its pieces back
// through their position lists (Scatter).
//
// The list is cut into runs: a run is a maximal stretch of consecutive
// list entries that lie in one source word with strictly ascending
// positions, so its output values are the source word's mask bits in bit
// order. Extracting a run is the compress operation of Warren, Hacker's
// Delight §7-4, and scattering it back is expand (§7-5): with the six move
// masks precomputed from the run's mask, which both operations share, one
// source word costs six mask-shift steps per plane instead of one step per
// set bit. Unsorted lists and duplicates are valid; they only make shorter
// runs.
type Extraction struct {
	n    int // source length every position was checked against (the scatter's destination length)
	out  int // output length, len(pos)
	runs []extractRun
}

// extractRun is one run: its source word, its mask there, where its
// values sit in the output (the word of the first one, the bit offset
// there, and whether they spill into the next word), and the compress
// move masks of its mask.
type extractRun struct {
	src   int
	mask  uint64
	dw    int
	sh    uint
	spill bool
	mv    [6]uint64
}

// CompileExtraction compiles the gather of pos from a source of n values.
// It panics, before building anything, unless every position lies in
// [0, n).
func CompileExtraction(pos []int, n int) *Extraction {
	runs := 0
	for j, p := range pos {
		if p < 0 || p >= n {
			panic(fmt.Sprintf("bitvec: position %d out of range [0,%d)", p, n))
		}
		if j == 0 || p/wordBits != pos[j-1]/wordBits || p <= pos[j-1] {
			runs++
		}
	}
	e := &Extraction{n: n, out: len(pos), runs: make([]extractRun, 0, runs)}
	for j := 0; j < len(pos); {
		r := extractRun{src: pos[j] / wordBits, dw: j / wordBits, sh: uint(j) % wordBits}
		r.mask = 1 << (uint(pos[j]) % wordBits)
		for j++; j < len(pos) && pos[j]/wordBits == r.src && pos[j] > pos[j-1]; j++ {
			r.mask |= 1 << (uint(pos[j]) % wordBits)
		}
		r.spill = int(r.sh)+bits.OnesCount64(r.mask) > wordBits
		r.mv = compressMasks(r.mask)
		e.runs = append(e.runs, r)
	}
	return e
}

// compressMasks returns the six move masks of compress(·, m): step i
// shifts the bits of mask i right by 2ⁱ (Hacker's Delight §7-4).
func compressMasks(m uint64) (mv [6]uint64) {
	mk := ^m << 1 // counts the zeros to the right of each bit
	for i := range mv {
		mp := mk ^ mk<<1 // parallel suffix
		mp ^= mp << 2
		mp ^= mp << 4
		mp ^= mp << 8
		mp ^= mp << 16
		mp ^= mp << 32
		mv[i] = mp & m
		m = m ^ mv[i] | mv[i]>>(1<<i)
		mk &^= mp
	}
	return mv
}

// compress moves the bits of x under the run's mask to the low end, in
// order.
func (r *extractRun) compress(x uint64) uint64 {
	x &= r.mask
	t := x & r.mv[0]
	x = x ^ t | t>>1
	t = x & r.mv[1]
	x = x ^ t | t>>2
	t = x & r.mv[2]
	x = x ^ t | t>>4
	t = x & r.mv[3]
	x = x ^ t | t>>8
	t = x & r.mv[4]
	x = x ^ t | t>>16
	t = x & r.mv[5]
	return x ^ t | t>>32
}

// expand is compress's inverse: it moves the low popcount(mask) bits of x,
// in order, onto the run's mask bits, undoing compress's steps from the
// last (Hacker's Delight §7-5). Bits of x above them are dropped.
func (r *extractRun) expand(x uint64) uint64 {
	x = x&^r.mv[5] | x<<32&r.mv[5]
	x = x&^r.mv[4] | x<<16&r.mv[4]
	x = x&^r.mv[3] | x<<8&r.mv[3]
	x = x&^r.mv[2] | x<<4&r.mv[2]
	x = x&^r.mv[1] | x<<2&r.mv[1]
	x = x&^r.mv[0] | x<<1&r.mv[0]
	return x & r.mask
}

// put ORs the run's compressed values v into one output plane at the
// run's output positions.
func (r *extractRun) put(plane []uint64, v uint64) {
	plane[r.dw] |= v << r.sh
	if r.spill {
		plane[r.dw+1] |= v >> (wordBits - r.sh)
	}
}

// take reads the run's values from one output plane as the low bits of a
// word; the bits above them are the plane's next values, which expand
// drops.
func (r *extractRun) take(plane []uint64) uint64 {
	v := plane[r.dw] >> r.sh
	if r.spill {
		v |= plane[r.dw+1] << (wordBits - r.sh)
	}
	return v
}

// Len returns the output length, the number of compiled positions.
func (e *Extraction) Len() int { return e.out }

// SourceLen returns the source length the positions were checked against.
func (e *Extraction) SourceLen() int { return e.n }

// Runs returns the number of runs.
func (e *Extraction) Runs() int { return len(e.runs) }

// Run returns run r's source word and the mask of the positions it reads
// there.
func (e *Extraction) Run(r int) (wi int, mask uint64) {
	return e.runs[r].src, e.runs[r].mask
}

// Extract writes run r's values into dst, whose length must be Len():
// src holds the run's source word, one word per plane of dst (bits outside
// the run's mask are ignored). The run's output positions of dst must
// still be zero, as in a fresh NewPlanes; runs write disjoint positions,
// so extracting every run once fills dst.
func (e *Extraction) Extract(dst Planes, r int, src []uint64) {
	if dst.n != e.out {
		panic(fmt.Sprintf("bitvec: extraction of %d values into %d", e.out, dst.n))
	}
	run := &e.runs[r]
	for l, x := range src[:dst.k] {
		run.put(dst.words[l*dst.stride:], run.compress(x))
	}
}

// ExtractWord is Extract for one plane: it writes run r's bits of the
// source word x into dst, whose length must be Len() and whose run
// positions must still be zero.
func (e *Extraction) ExtractWord(dst Vector, r int, x uint64) {
	if dst.n != e.out {
		panic(fmt.Sprintf("bitvec: extraction of %d values into %d", e.out, dst.n))
	}
	run := &e.runs[r]
	run.put(dst.words, run.compress(x))
}

// Scatter writes bit j of src into position pos[j] of dst, for every j in
// order, so a repeated position keeps its last write. src must have length
// Len() and dst length SourceLen(). Each run costs one expand and one
// word write; dst's bits outside the compiled positions are kept.
func (e *Extraction) Scatter(dst, src Vector) {
	if src.n != e.out || dst.n != e.n {
		panic(fmt.Sprintf("bitvec: scatter of %d values into %d through a list of %d positions in [0,%d)", src.n, dst.n, e.out, e.n))
	}
	for i := range e.runs {
		r := &e.runs[i]
		dst.words[r.src] = dst.words[r.src]&^r.mask | r.expand(r.take(src.words))
	}
}
