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
	"math/bits"
	"sync"
	"sync/atomic"

	"collabscore/internal/bitvec"
)

// Board is a concurrent bulletin board over n players and m objects.
// Entries are (player, object) → bit. Writing is idempotent per cell: the
// first write wins, matching the model where an honest player publishes the
// result of a probe once (re-publishing the same truth is harmless, and a
// dishonest player gains nothing by flip-flopping because honest readers
// snapshot).
//
// A board alternates between a publish phase (concurrent WriteWord calls,
// each taking its lane's lock) and a tally phase. Calling Freeze at the
// barrier between them seals the board and returns an immutable view whose
// reads need no locks at all — the cheap fan-out read path of the
// work-sharing tally (DESIGN.md §7).
type Board struct {
	n, m   int
	lanes  []lane
	sealed atomic.Bool
	writes counter
	reads  counter
}

// lane is one player's region of the board.
type lane struct {
	mu      sync.Mutex
	written bitvec.Vector
	values  bitvec.Vector
}

// numStripes is the number of counter stripes; a power of two so the stripe
// index is a mask. 32 stripes comfortably exceed the core counts this
// repository targets.
const numStripes = 32

// counter is a striped event counter. Each board belongs to one work-sharing
// phase of one protocol run, but within that phase the parallel loop hammers
// the write/read totals from every worker goroutine at once, so a single atomic
// word becomes a cache-line ping-pong hotspot (and with concurrent Byzantine
// repetitions, every core is busy doing the same to its own repetition's
// board). Each stripe lives on its own cache line; callers spread increments
// by lane id and totals are summed on read (counts only need to be exact
// between phases, which is when anyone reads them).
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

// New creates an empty board for n players and m objects.
func New(n, m int) *Board {
	b := &Board{n: n, m: m, lanes: make([]lane, n)}
	for i := range b.lanes {
		b.lanes[i].written = bitvec.New(m)
		b.lanes[i].values = bitvec.New(m)
	}
	return b
}

// Players returns the number of player lanes.
func (b *Board) Players() int { return b.n }

// Objects returns the number of object columns.
func (b *Board) Objects() int { return b.m }

// WriteWord publishes player p's values for every object whose bit is set
// in written, within object word wi (objects wi*64 … wi*64+63); bit j of
// values is the value for object wi*64+j (bits of values outside written
// are ignored). Cells keep first-write-wins semantics per object, and the
// whole word costs one lane lock acquisition and one counter update: the
// write count charges popcount(written), one write per cell in the mask
// (bits past Objects() excluded). WriteWord is safe for concurrent use. It
// panics if the board has been sealed by Freeze — publishing after the
// tally barrier is a protocol-phase ordering bug. The sealed check happens
// under the lane lock, so a write racing Freeze either completes before
// the seal or panics; it can never mutate a lane the frozen view is
// already reading.
func (b *Board) WriteWord(p, wi int, written, values uint64) {
	written &= b.lanes[p].written.WordMask(wi)
	if written == 0 {
		return
	}
	ln := &b.lanes[p]
	ln.mu.Lock()
	if b.sealed.Load() {
		ln.mu.Unlock()
		panic("board: WriteWord after Freeze")
	}
	newBits := written &^ ln.written.Word(wi)
	ln.written.OrWord(wi, newBits)
	ln.values.OrWord(wi, values&newBits)
	ln.mu.Unlock()
	b.writes.addN(p, int64(bits.OnesCount64(written)))
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
	for i := range b.lanes {
		// The empty critical section is the barrier: it flushes any writer
		// that entered its lane before the seal became visible.
		b.lanes[i].mu.Lock()
		b.lanes[i].mu.Unlock() //nolint:staticcheck // SA2001: intentional
	}
	return &Frozen{b: b}
}

// tallyPlanes is the maximum number of bit planes a word tally carries:
// per-object vote counts are bounded by the player count, so 2^20 voters
// is far beyond any board this repository builds.
const tallyPlanes = 20

// wordTally accumulates per-object vote counts for one 64-object word
// across many player lanes in bit-sliced form: plane k holds bit k of each
// object's running count. Adding a lane word is O(log count) word
// operations instead of 64 per-object increments, which is what makes the
// frozen tally word-level instead of cell-level. The zero value is an
// empty tally; it lives on the caller's stack (no allocation).
type wordTally struct {
	ones  [tallyPlanes]uint64 // bit-sliced count of value-1 votes
	total [tallyPlanes]uint64 // bit-sliced count of all votes
	hiOne int                 // highest ones plane touched
	hiTot int                 // highest total plane touched
}

// addPlane adds the set bits of x, interpreted as per-object increments,
// into the bit-sliced counter p, returning the highest plane carried into.
func addPlane(p *[tallyPlanes]uint64, hi int, x uint64) int {
	k := 0
	for carry := x; carry != 0; k++ {
		p[k], carry = p[k]^carry, p[k]&carry
	}
	if k-1 > hi {
		hi = k - 1
	}
	return hi
}

// add accumulates one lane's word: written marks the objects the lane
// voted on, vals the value-1 votes among them (vals ⊆ written).
func (t *wordTally) add(written, vals uint64) {
	if written == 0 {
		return
	}
	t.hiTot = addPlane(&t.total, t.hiTot, written)
	if vals != 0 {
		t.hiOne = addPlane(&t.ones, t.hiOne, vals)
	}
}

// counts returns the number of value-1 votes and total votes for object
// bit b of the tallied word.
func (t *wordTally) counts(b int) (ones, total int) {
	for k := t.hiOne; k >= 0; k-- {
		ones = ones<<1 | int((t.ones[k]>>uint(b))&1)
	}
	for k := t.hiTot; k >= 0; k-- {
		total = total<<1 | int((t.total[k]>>uint(b))&1)
	}
	return ones, total
}

// majority returns the word whose bit b is set iff strictly more than half
// of the votes for object bit b are ones (no votes → 0).
func (t *wordTally) majority() uint64 {
	var any uint64
	for k := 0; k <= t.hiTot; k++ {
		any |= t.total[k]
	}
	var maj uint64
	for x := any; x != 0; x &= x - 1 {
		b := bits.TrailingZeros64(x)
		ones, total := t.counts(b)
		if 2*ones > total {
			maj |= 1 << uint(b)
		}
	}
	return maj
}

// MajorityWord returns, for object word wi, the word whose bit b is set
// iff strictly more than half of the players that published for object
// wi*64+b published a 1 — the per-object ones > zeros rule of the
// workshare tally, computed from whole lane words. Objects nobody
// published for get 0. Allocation-free; reads are charged as one per
// consulted lane word in a single counter update. The consulted set is
// every player passed in (each lane word is loaded whether or not that
// player published), so read counts measure the word-level protocol's
// communication.
func (f *Frozen) MajorityWord(wi int, players []int) uint64 {
	var t wordTally
	for _, p := range players {
		ln := &f.b.lanes[p]
		w := ln.written.Word(wi)
		t.add(w, ln.values.Word(wi)&w)
	}
	f.b.reads.addN(wi, int64(len(players)))
	return t.majority()
}

// WriteCount returns the total number of cells written (communication
// cost): WriteWord charges one write per cell in its mask.
func (b *Board) WriteCount() int64 { return b.writes.total() }

// ReadCount returns the total number of lane words read: MajorityWord
// charges one read per player it consults.
func (b *Board) ReadCount() int64 { return b.reads.total() }
