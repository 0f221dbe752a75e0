package bitvec

import (
	"fmt"
	"math/bits"
)

// Extraction is a compiled gather of a position list: value j of its
// output is the source value at position pos[j]. It is built once from the
// list and then applied to any number of sources read a word at a time —
// the rating publish compiles each diameter guess's sample once and every
// player's truth words flow through it.
//
// The list is cut into runs: a run is a maximal stretch of consecutive
// list entries that lie in one source word with strictly ascending
// positions, so its output values are the source word's mask bits in bit
// order. Extracting a run is the compress operation of Warren, Hacker's
// Delight §7-4: with the six move masks precomputed from the run's mask,
// one source word costs six mask-shift steps per plane instead of one
// step per set bit. Unsorted lists and duplicates are valid; they only
// make shorter runs.
type Extraction struct {
	n    int // source length every position was checked against
	out  int // output length, len(pos)
	runs []extractRun
}

// extractRun is one run: its source word, its mask there, the output
// position of its first value, and the compress move masks of its mask.
type extractRun struct {
	src  int
	mask uint64
	dst  int
	mv   [6]uint64
}

// CompileExtraction compiles the gather of pos from a source of n values.
// It panics, before building anything, unless every position lies in
// [0, n).
func CompileExtraction(pos []int, n int) *Extraction {
	for _, p := range pos {
		if p < 0 || p >= n {
			panic(fmt.Sprintf("bitvec: position %d out of range [0,%d)", p, n))
		}
	}
	e := &Extraction{n: n, out: len(pos)}
	for j := 0; j < len(pos); {
		r := extractRun{src: pos[j] / wordBits, dst: j}
		r.mask = 1 << (uint(pos[j]) % wordBits)
		for j++; j < len(pos) && pos[j]/wordBits == r.src && pos[j] > pos[j-1]; j++ {
			r.mask |= 1 << (uint(pos[j]) % wordBits)
		}
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
	wi, sh := run.dst/wordBits, uint(run.dst)%wordBits
	spill := sh != 0 && int(sh)+bits.OnesCount64(run.mask) > wordBits
	for l, x := range src[:dst.k] {
		v := run.compress(x)
		dst.words[l*dst.stride+wi] |= v << sh
		if spill {
			dst.words[l*dst.stride+wi+1] |= v >> (wordBits - sh)
		}
	}
}
