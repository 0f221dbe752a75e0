// Package board implements the public bulletin board substrate from the
// paper's model (§2): a shared memory where, in each round, every player can
// publish the result of a probe and read what others have published.
//
// The board enforces the model's one safety property: a dishonest player
// cannot modify data written by honest players. Each player writes only to
// its own lane, and lanes are keyed by player id, so cross-lane writes are
// structurally impossible.
//
// The board also tracks communication cost (total writes and reads), which
// §8 of the paper raises as an open accounting question. Counters are
// striped across cache lines so concurrent phase loops do not contend on a
// single hot word; see DESIGN.md §7 for the board's full concurrency
// contract (publish → Freeze barrier → lock-free tally).
package board

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"weak"

	"collabscore/internal/bitvec"
)

// Board is a concurrent bulletin board over n players and m objects.
// Entries are (player, object) → a k-bit value, stored as k bit-planes (the
// binary protocols' board is k = 1: one bit per entry). Writing is
// idempotent per cell: the first write wins across all k planes, matching
// the model where an honest player publishes the result of a probe once
// (re-publishing the same truth is harmless, and a dishonest player gains
// nothing by flip-flopping because honest readers snapshot).
//
// A board alternates between a publish phase (concurrent WritePlanes calls,
// each taking its lane's lock) and a tally phase. Calling Freeze at the
// barrier between them seals the board and returns an immutable view whose
// reads need no locks at all — the cheap fan-out read path of the
// work-sharing tally (DESIGN.md §7).
type Board struct {
	n, m, k int
	words   int // object words per lane, ⌈m/64⌉
	// slab holds every lane: player p's object word wi is the 1+k words
	// from cell(p, wi), its written mask and then its k value planes, so a
	// write or a tally touches one stretch of memory per lane word.
	slab   []uint64
	locks  []sync.Mutex // one per lane
	sealed atomic.Bool
	writes counter
	reads  counter
}

// numStripes is the number of counter stripes; a power of two so the stripe
// index is a mask. 32 stripes comfortably exceed the core counts this
// repository targets.
const numStripes = 32

// counter is a striped event counter: a share's parallel loop updates the
// write/read totals from every worker at once, and one atomic word would
// bounce its cache line between them. Each stripe has its own cache line;
// callers spread increments by lane id, and totals are summed on read
// (counts need only be exact between phases, when anyone reads them).
type counter struct {
	stripes [numStripes]paddedCount
}

// paddedCount pads each stripe to a full 64-byte cache line to prevent
// false sharing between adjacent stripes.
type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

// addN adds n events to the stripe selected by key: a word-level write or
// tally accounts all its cells with one atomic instead of one per cell.
func (c *counter) addN(key int, n int64) { c.stripes[key&(numStripes-1)].n.Add(n) }

// total sums all stripes.
func (c *counter) total() int64 {
	var t int64
	for i := range c.stripes {
		t += c.stripes[i].n.Load()
	}
	return t
}

// New creates an empty one-plane board for n players and m objects: the
// binary protocols' board, NewPlanes(n, m, 1).
func New(n, m int) *Board { return NewPlanes(n, m, 1) }

// NewPlanes creates an empty board for n players and m objects whose
// values are k bit-planes wide, backed by one slab of n·(1+k)·⌈m/64⌉
// words: the spare slab, cleared, if it is about that size, else a fresh
// one. It panics if k is outside [1, bitvec.MaxPlaneBits].
func NewPlanes(n, m, k int) *Board {
	if k < 1 || k > bitvec.MaxPlaneBits {
		panic(fmt.Sprintf("board: plane count %d outside [1,%d]", k, bitvec.MaxPlaneBits))
	}
	words := (m + 63) / 64
	size := n * words * (1 + k)
	spare.Lock()
	free := spare.slab.Value()
	spare.slab = weak.Pointer[[]uint64]{}
	spare.Unlock()
	var slab []uint64
	if free != nil && cap(*free) >= size && cap(*free) <= 2*size {
		slab = (*free)[:size]
		clear(slab)
	} else {
		slab = make([]uint64, size)
	}
	return &Board{n: n, m: m, k: k, words: words, slab: slab, locks: make([]sync.Mutex, n)}
}

// spare points at the slab of the last board released, unless a board has
// taken it since. Reusing a slab that is still mapped and cached costs a
// clear instead of a fresh slab's page faults and cache misses on first
// writes. The pointer is weak, so the spare is not live memory: the next
// garbage collection frees it, and the heap grows no larger than without it.
var spare struct {
	sync.Mutex
	slab weak.Pointer[[]uint64]
}

// Release hands the board's slab to the next board built. Neither the
// board nor its frozen view may be used afterwards.
func (b *Board) Release() {
	slab := b.slab
	b.slab = nil
	spare.Lock()
	spare.slab = weak.Make(&slab)
	spare.Unlock()
}

// cell returns the index in the slab of player p's object word wi.
func (b *Board) cell(p, wi int) int { return (p*b.words + wi) * (1 + b.k) }

// Players returns the number of player lanes.
func (b *Board) Players() int { return b.n }

// Objects returns the number of object columns.
func (b *Board) Objects() int { return b.m }

// wordMask returns the valid-object mask of object word wi (all ones but in
// a partial tail word). It panics if wi is not an object word.
func (b *Board) wordMask(wi int) uint64 {
	if uint(wi) >= uint(b.words) {
		panic(fmt.Sprintf("board: object word %d outside [0,%d)", wi, b.words))
	}
	if r := b.m % 64; wi == b.words-1 && r != 0 {
		return 1<<uint(r) - 1
	}
	return ^uint64(0)
}

// WritePlanes publishes player p's values for every object whose bit is
// set in written, within object word wi (objects wi*64 … wi*64+63): bit j
// of planes[l] is bit l of the value for object wi*64+j (bits outside
// written are ignored; planes holds one word per plane). Cells keep
// first-write-wins semantics per object across all planes; the word costs
// one lane lock and one counter update, which charges one write per cell
// in the mask (bits past Objects() excluded). WritePlanes is safe for
// concurrent use. It panics unless planes has one word per plane, or if
// Freeze has sealed the board — a protocol-phase ordering bug. The seal is
// checked under the lane lock, so a write racing Freeze either completes
// before the seal or panics; it never mutates a lane the frozen view reads.
func (b *Board) WritePlanes(p, wi int, written uint64, planes []uint64) {
	if len(planes) != b.k {
		panic(fmt.Sprintf("board: %d value planes for a %d-plane board", len(planes), b.k))
	}
	written &= b.wordMask(wi)
	if written == 0 {
		return
	}
	c := b.slab[b.cell(p, wi):][:1+b.k]
	mu := &b.locks[p]
	mu.Lock()
	if b.sealed.Load() {
		mu.Unlock()
		panic("board: write after Freeze")
	}
	fresh := written &^ c[0]
	c[0] |= fresh
	for l, x := range planes {
		c[1+l] |= x & fresh
	}
	mu.Unlock()
	b.writes.addN(p, int64(bits.OnesCount64(written)))
}

// WriteWord is WritePlanes on a one-plane board: bit j of values is the
// value for object wi*64+j.
func (b *Board) WriteWord(p, wi int, written, values uint64) {
	v := [1]uint64{values}
	b.WritePlanes(p, wi, written, v[:])
}

// Frozen is an immutable view of a sealed board, produced by Freeze at the
// barrier between a publish phase and a tally phase. Its reads take no
// locks: the underlying lanes cannot change once the board is sealed, so
// any number of goroutines may tally concurrently. Reads are still charged
// to the board's communication counters (striped, so concurrent tallying
// does not contend on a single counter word).
type Frozen struct {
	b *Board
}

// Freeze seals the board against further writes and returns the immutable
// view. Sealing is permanent for the board's lifetime (boards are
// per-phase objects). Freeze is the phase barrier: after setting the seal
// it acquires and releases every lane lock, so any write that slipped in
// before the seal has fully completed before Freeze returns, and any later
// write panics under its lane lock.
func (b *Board) Freeze() *Frozen {
	b.sealed.Store(true)
	for i := range b.locks {
		// The empty critical section is the barrier: it flushes any writer
		// that entered its lane before the seal became visible.
		b.locks[i].Lock()
		b.locks[i].Unlock() //nolint:staticcheck // SA2001: intentional
	}
	return &Frozen{b: b}
}

// tallyPlanes is the maximum number of bit planes a word tally carries:
// per-object vote counts are bounded by the player count, so 2^20 voters
// is far beyond any board this repository builds.
const tallyPlanes = 20

// tally is a bit-sliced counter over the 64 objects of one word: plane i
// of p holds bit i of each object's count, in a fixed width of w planes.
// Lane words are summed seven at a time into a small three-plane count,
// which carry adds into p; both steps have a fixed length, so no carry
// chain costs a data-dependent branch (DESIGN.md §7). A tally lives on the
// caller's stack.
type tally struct {
	p [tallyPlanes]uint64
	w int
}

// small is a bit-sliced count of up to 7 lane words in three planes, a
// struct rather than an array so that it lives in registers.
type small struct{ b0, b1, b2 uint64 }

// plus returns s with one more lane word x counted.
func (s small) plus(x uint64) small {
	c := s.b0 & x
	return small{s.b0 ^ x, s.b1 ^ c, s.b2 ^ s.b1&c}
}

// carry adds the small count s into t.
func (t *tally) carry(s small) {
	in := [...]uint64{s.b0, s.b1, s.b2}
	var c uint64
	for i := range t.p[:t.w] {
		var b uint64
		if i < len(in) {
			b = in[i]
		}
		a := t.p[i]
		t.p[i] = a ^ b ^ c
		c = a&b | c&(a^b)
	}
}

// geq returns the objects whose count in t is at least their count in u.
func (t *tally) geq(u *tally) uint64 {
	var gt, lt uint64
	for i := t.w - 1; i >= 0; i-- {
		gt |= t.p[i] &^ u.p[i] &^ lt
		lt |= u.p[i] &^ t.p[i] &^ gt
	}
	return ^lt
}

// sub subtracts u from t on the objects of mask, where t ≥ u.
func (t *tally) sub(u *tally, mask uint64) {
	var borrow uint64
	for i := range t.p[:t.w] {
		a, b := t.p[i], u.p[i]&mask
		t.p[i] = a ^ b ^ borrow
		borrow = ^a&(b|borrow) | b&borrow
	}
}

// lowerHalf returns ⌊(t−1)/2⌋ per object, the rank of the lower median
// among t values (garbage where t is 0).
func (t *tally) lowerHalf() tally {
	r := tally{w: t.w}
	borrow := ^uint64(0)
	for i := range t.p[:t.w] {
		if i > 0 {
			r.p[i-1] = t.p[i] ^ borrow
		}
		borrow &^= t.p[i]
	}
	return r
}

// MedianWords writes into dst (one word per plane) the values, for object
// word wi, of the lower median of what the consulted players published:
// for object wi*64+b, among the t players that wrote it, the value of rank
// ⌊(t−1)/2⌋ in ascending order, and 0 where no player wrote. It runs
// bit-serially from the top plane down on bit-sliced counters (DESIGN.md
// §7): at plane l it counts, per object, the writers that agree with the
// median's higher bits and have bit l clear; the median's bit l is 1
// exactly where the remaining rank reaches that count, which then comes
// off the rank. Allocation-free; it charges one read per player passed in,
// published or not, in one counter update. It panics unless dst has one
// word per plane.
//
// On a one-plane board this is the strict-majority rule: the lower median
// of t values in {0, 1} is 1 exactly when the zeros number at most
// ⌊(t−1)/2⌋, that is when 2·ones > t.
func (f *Frozen) MedianWords(wi int, players []int, dst []uint64) {
	b := f.b
	if len(dst) != b.k {
		panic(fmt.Sprintf("board: %d median planes for a %d-plane board", len(dst), b.k))
	}
	b.wordMask(wi)
	b.reads.addN(wi, int64(len(players)))
	// Every count is at most len(players), which fixes the tallies' width
	// (at least the three planes of their pending count). The top plane's
	// pass also counts the writers.
	w := max(bits.Len(uint(len(players))), 3)
	writers, zeros := tally{w: w}, tally{w: w}
	k, lane, at := b.k, b.words*(1+b.k), wi*(1+b.k)
	for i := 0; i < len(players); i += 7 {
		var ws, zs small
		for _, p := range players[i:min(i+7, len(players))] {
			c := b.slab[p*lane+at:]
			ws, zs = ws.plus(c[0]), zs.plus(c[0]&^c[k])
		}
		writers.carry(ws)
		zeros.carry(zs)
	}
	var wrote uint64
	for _, x := range writers.p[:w] {
		wrote |= x
	}
	rank := writers.lowerHalf()
	for l := k - 1; l >= 0; l-- {
		if l < k-1 {
			zeros = tally{w: w}
			for i := 0; i < len(players); i += 7 {
				var zs small
				for _, p := range players[i:min(i+7, len(players))] {
					c := b.slab[p*lane+at:]
					agree := c[0]
					for h := k - 1; h > l; h-- {
						agree &^= c[1+h] ^ dst[h]
					}
					zs = zs.plus(agree &^ c[1+l])
				}
				zeros.carry(zs)
			}
		}
		one := rank.geq(&zeros)
		rank.sub(&zeros, one)
		dst[l] = one & wrote
	}
}

// MajorityWord is MedianWords on a one-plane board: the word whose bit b
// is set iff strictly more than half of the players that published for
// object wi*64+b published a 1 — the per-object ones > zeros rule of the
// workshare tally. Objects nobody published for get 0.
func (f *Frozen) MajorityWord(wi int, players []int) uint64 {
	var d [1]uint64
	f.MedianWords(wi, players, d[:])
	return d[0]
}

// WriteCount returns the total number of cells written (communication
// cost): WritePlanes charges one write per cell in its mask.
func (b *Board) WriteCount() int64 { return b.writes.total() }

// ReadCount returns the total number of lane words read: MedianWords
// charges one read per player it consults.
func (b *Board) ReadCount() int64 { return b.reads.total() }
