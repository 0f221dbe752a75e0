package world

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"collabscore/internal/bitvec"
)

// Ledger is the paper's cost measure (§2) for one game: who is honest,
// which (player, object) pairs each player has probed, and how many probes
// each player has been charged. It is the one charging implementation:
// World and the rating world (multival.World) both embed it by value and
// keep only their truth, behaviors and report paths.
//
// Once a player has probed an object it knows the answer forever, so
// re-probing is free: the paper's probe complexity counts distinct objects
// examined. The per-player memo is a lock-free atomic bitset (bitvec.Atomic)
// so that concurrent probes of one (player, object) pair charge exactly
// once under any schedule.
//
// Memos are installed on a player's FIRST probe (memo), not at
// construction: eagerly allocating n bitsets of m bits is itself the O(n·m)
// wall the lazy truth sources remove, and protocols only ever probe a
// vanishing fraction of players at the scales where that wall matters.
type Ledger struct {
	n, m, words int
	// tailMask masks the valid bits of the last object word.
	tailMask uint64
	honest   []bool
	probes   []atomic.Int64
	known    []atomic.Pointer[bitvec.Atomic]
}

// NewLedger returns the ledger of n players over m objects: every player
// honest, nothing probed.
func NewLedger(n, m int) Ledger {
	l := Ledger{
		n:        n,
		m:        m,
		words:    (m + 63) / 64,
		tailMask: tailMask(m),
		honest:   make([]bool, n),
		probes:   make([]atomic.Int64, n),
		known:    make([]atomic.Pointer[bitvec.Atomic], n),
	}
	for p := range l.honest {
		l.honest[p] = true
	}
	return l
}

// tailMask returns the valid-bit mask of the last word of an m-bit row.
func tailMask(m int) uint64 {
	if r := m % 64; r != 0 {
		return (1 << uint(r)) - 1
	}
	return ^uint64(0)
}

// N returns the number of players.
func (l *Ledger) N() int { return l.n }

// M returns the number of objects.
func (l *Ledger) M() int { return l.m }

// ProbeWords returns the number of 64-bit words spanning the object set:
// the word index range valid for word-level probes. Object o lives in word
// o/64, bit o%64.
func (l *Ledger) ProbeWords() int { return l.words }

// memo returns player p's probe memo, installing it on first use. The
// install is a CAS race any number of concurrent probers may enter; losers
// adopt the winner's bitset, so exactly one memo ever serves a player and
// the charge-once guarantee is unaffected.
func (l *Ledger) memo(p int) *bitvec.Atomic {
	if k := l.known[p].Load(); k != nil {
		return k
	}
	fresh := bitvec.NewAtomic(l.m)
	if l.known[p].CompareAndSwap(nil, &fresh) {
		return &fresh
	}
	return l.known[p].Load()
}

// ChargeBit records that player p probed object o, charging one probe
// unless p has probed o before.
func (l *Ledger) ChargeBit(p, o int) {
	if !l.memo(p).TestAndSet(o) {
		l.probes[p].Add(1)
	}
}

// ChargeWord records that player p probed every object whose bit is set in
// mask within object word wi, and returns mask clipped to existing objects.
// One CAS marks the word and one atomic add charges popcount of the newly
// learned bits, so per-player totals equal bit-at-a-time ChargeBit under
// every schedule (each pair is charged by whichever caller learns it
// first). It panics on an out-of-range word, like WordMask.
func (l *Ledger) ChargeWord(p, wi int, mask uint64) uint64 {
	mask &= l.WordMask(wi)
	chargeWord(l.memo(p), &l.probes[p], wi, mask)
	return mask
}

// chargeWord marks mask in word wi of a player's memo and adds the newly
// learned bits to the player's probe counter: the one charging step of
// ChargeWord and Prober.ProbeWord.
func chargeWord(memo *bitvec.Atomic, probes *atomic.Int64, wi int, mask uint64) {
	if nb := memo.OrWord(wi, mask); nb != 0 {
		probes.Add(int64(bits.OnesCount64(nb)))
	}
}

// WordMask returns the valid-bit mask for object word wi, panicking on an
// out-of-range index like bitvec.Vector.WordMask does — representation-
// independent, so dense and lazy worlds fail identically.
func (l *Ledger) WordMask(wi int) uint64 {
	if uint(wi) >= uint(l.words) {
		l.wordOutOfRange(wi)
	}
	if wi == l.words-1 {
		return l.tailMask
	}
	return ^uint64(0)
}

// wordOutOfRange panics for WordMask, out of line so that WordMask stays
// small enough to inline into the probe paths.
//
//go:noinline
func (l *Ledger) wordOutOfRange(wi int) {
	panic(fmt.Sprintf("bitvec: word %d out of range [0,%d)", wi, l.words))
}

// Probes returns the number of probes charged to player p so far.
func (l *Ledger) Probes(p int) int64 { return l.probes[p].Load() }

// MaxHonestProbes returns the maximum probe count over honest players —
// the paper's per-player probe complexity measure.
func (l *Ledger) MaxHonestProbes() int64 {
	var mx int64
	for p := 0; p < l.n; p++ {
		if l.honest[p] {
			mx = max(mx, l.probes[p].Load())
		}
	}
	return mx
}

// MeanHonestProbes returns the average probe count over honest players.
func (l *Ledger) MeanHonestProbes() float64 {
	var total int64
	cnt := 0
	for p := 0; p < l.n; p++ {
		if l.honest[p] {
			total += l.probes[p].Load()
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return float64(total) / float64(cnt)
}

// TotalProbes returns the total probes charged across all players.
func (l *Ledger) TotalProbes() int64 {
	var t int64
	for p := range l.probes {
		t += l.probes[p].Load()
	}
	return t
}

// ResetProbes zeroes all probe counters and forgets all memoized probes,
// keeping the memo allocations, so the next protocol run on the same world
// starts from zero probes. It must not run
// concurrently with probes (a between-runs operation, not a phase
// operation).
func (l *Ledger) ResetProbes() {
	for p := range l.probes {
		l.probes[p].Store(0)
		if k := l.known[p].Load(); k != nil {
			k.Reset()
		}
	}
}

// SetHonest records whether player p follows the protocol. Worlds call it
// from SetBehavior, which keeps the flag in step with p's behavior.
func (l *Ledger) SetHonest(p int, honest bool) { l.honest[p] = honest }

// IsHonest reports whether player p follows the protocol.
func (l *Ledger) IsHonest(p int) bool { return l.honest[p] }

// HonestPlayers returns the ids of all honest players, ascending.
func (l *Ledger) HonestPlayers() []int { return l.roster(true) }

// DishonestPlayers returns the ids of all dishonest players, ascending.
func (l *Ledger) DishonestPlayers() []int { return l.roster(false) }

func (l *Ledger) roster(honest bool) []int {
	var out []int
	for p, h := range l.honest {
		if h == honest {
			out = append(out, p)
		}
	}
	return out
}
