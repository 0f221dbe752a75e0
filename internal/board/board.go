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
// A board alternates between a publish phase (concurrent Writes, each
// taking its lane's lock) and a tally phase. Calling Freeze at the barrier
// between them seals the board and returns an immutable view whose reads
// need no locks at all — the cheap fan-out read path of the work-sharing
// tally (DESIGN.md §7).
type Board struct {
	n, m   int
	lanes  []lane
	sealed atomic.Bool
	writes counter
	reads  counter
}

// lane is one player's region of the board.
type lane struct {
	mu      sync.RWMutex
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

// add increments the stripe selected by key.
func (c *counter) add(key int) { c.stripes[key&(numStripes-1)].n.Add(1) }

// addN adds n events to the stripe selected by key — the bulk-path
// counterpart of add: a word-level write or tally accounts all its cells
// with one atomic instead of one per cell.
func (c *counter) addN(key int, n int64) { c.stripes[key&(numStripes-1)].n.Add(n) }

// total sums all stripes.
func (c *counter) total() int64 {
	var t int64
	for i := range c.stripes {
		t += c.stripes[i].n.Load()
	}
	return t
}

// reset zeroes all stripes.
func (c *counter) reset() {
	for i := range c.stripes {
		c.stripes[i].n.Store(0)
	}
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

// Write publishes player p's value for object o. The first write to a cell
// sticks; later writes to the same cell are ignored. Write is safe for
// concurrent use. It panics if the board has been sealed by Freeze —
// publishing after the tally barrier is a protocol-phase ordering bug.
// The sealed check happens under the lane lock, so a write racing Freeze
// either completes before the seal or panics; it can never mutate a lane
// the frozen view is already reading.
func (b *Board) Write(p, o int, v bool) {
	ln := &b.lanes[p]
	ln.mu.Lock()
	if b.sealed.Load() {
		ln.mu.Unlock()
		panic("board: Write after Freeze")
	}
	if !ln.written.Get(o) {
		ln.written.Set(o, true)
		ln.values.Set(o, v)
	}
	ln.mu.Unlock()
	b.writes.add(p)
}

// WriteWord publishes player p's values for every object whose bit is set
// in written, within object word wi (objects wi*64 … wi*64+63); bit j of
// values is the value for object wi*64+j (bits of values outside written
// are ignored). Cells keep first-write-wins semantics per object, and the
// whole word costs one lane lock acquisition and one counter update: the
// write count charges popcount(written) — one write per distinct cell in
// the mask, the same as writing those cells through per-object Write
// calls. (A caller that would have issued duplicate Write calls for one
// cell and instead collapses them into a mask bit charges the duplicates
// only once; the workshare does exactly that, so its write counts are
// lower than the pre-word-level implementation's for the same seed.)
// Like Write it is safe for concurrent use and panics after Freeze.
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

// WriteVector publishes player p's values for every object whose bit is
// set in written, across the whole lane; values is read on written's
// positions only. Both vectors must have length Objects(). It is WriteWord
// applied to every non-empty word.
func (b *Board) WriteVector(p int, written, values bitvec.Vector) {
	if written.Len() != b.m || values.Len() != b.m {
		panic("board: WriteVector length mismatch")
	}
	for wi := 0; wi < written.Words(); wi++ {
		if w := written.Word(wi); w != 0 {
			b.WriteWord(p, wi, w, values.Word(wi))
		}
	}
}

// Read returns player p's published value for object o and whether p has
// published one.
func (b *Board) Read(p, o int) (value, ok bool) {
	ln := &b.lanes[p]
	ln.mu.RLock()
	ok = ln.written.Get(o)
	value = ln.values.Get(o)
	ln.mu.RUnlock()
	b.reads.add(p)
	return value, ok
}

// Votes tallies the published values for object o among the given players.
// Players that have not published for o are skipped.
func (b *Board) Votes(o int, players []int) (ones, zeros int) {
	for _, p := range players {
		v, ok := b.Read(p, o)
		if !ok {
			continue
		}
		if v {
			ones++
		} else {
			zeros++
		}
	}
	return ones, zeros
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
// per-phase objects; Reset unseals for reuse). Freeze is the phase
// barrier: after setting the seal it acquires and releases every lane
// lock, so any write that slipped in before the seal has fully completed
// before Freeze returns, and any later write panics under its lane lock.
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

// Read returns player p's published value for object o and whether p has
// published one, without locking. It counts as one board read.
func (f *Frozen) Read(p, o int) (value, ok bool) {
	ln := &f.b.lanes[p]
	ok = ln.written.Get(o)
	value = ln.values.Get(o)
	f.b.reads.add(p)
	return value, ok
}

// Votes tallies the published values for object o among the given players,
// lock-free. Players that have not published for o are skipped.
func (f *Frozen) Votes(o int, players []int) (ones, zeros int) {
	for _, p := range players {
		v, ok := f.Read(p, o)
		if !ok {
			continue
		}
		if v {
			ones++
		} else {
			zeros++
		}
	}
	return ones, zeros
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
// of the votes for object bit b are ones (no votes → 0, matching the
// ones > zeros rule of Votes).
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
// consulted lane word in a single counter update — note the consulted
// set is every player passed in (each lane word is loaded whether or not
// that player published), not the per-object publishers a cell-level
// Votes loop would have charged, so read counts measure the word-level
// protocol's communication, not the cell-level one.
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

// MajorityInto fills dst (length Objects()) with the per-object majority
// of the given players' published values, word by word — the whole-board
// MajorityWord. It allocates nothing.
func (f *Frozen) MajorityInto(dst bitvec.Vector, players []int) {
	if dst.Len() != f.b.m {
		panic("board: MajorityInto length mismatch")
	}
	for wi := 0; wi < dst.Words(); wi++ {
		dst.SetWord(wi, f.MajorityWord(wi, players))
	}
}

// WriteCount returns the total number of Write calls (communication cost).
func (b *Board) WriteCount() int64 { return b.writes.total() }

// ReadCount returns the total number of Read/Votes accesses.
func (b *Board) ReadCount() int64 { return b.reads.total() }

// Reset clears all lanes and counters and unseals the board, reusing the
// allocated storage: lanes are zeroed in place, so a reset costs no
// allocations (board pooling across protocol runs depends on this). Any
// Frozen views taken before Reset must be discarded — they would read the
// new phase's lanes, not a snapshot of the old one.
func (b *Board) Reset() {
	b.sealed.Store(false)
	for i := range b.lanes {
		ln := &b.lanes[i]
		ln.mu.Lock()
		ln.written.Zero()
		ln.values.Zero()
		ln.mu.Unlock()
	}
	b.writes.reset()
	b.reads.reset()
}
