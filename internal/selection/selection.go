// Package selection implements the candidate-vector selection protocols of
// Figure 1: RSelect (randomized, Theorem 3) and Select (the deterministic
// diameter-bounded variant used inside SmallRadius, Theorem 5).
//
// Both protocols run locally at one player p: given candidate preference
// vectors over some object set, p probes a few objects on which candidates
// disagree and eliminates candidates that lose the resulting votes. RSelect
// guarantees the output is within a constant factor of the best candidate's
// distance; Select additionally exploits a promised diameter bound D.
//
// Selection is deliberately the sequential tail of each player's work: a
// tournament's next duel depends on who survived the previous one (and on
// the coins the previous duel consumed), so its loops cannot fan out
// without changing which objects are probed. Callers parallelize one level
// up instead — SmallRadius and the final CalculatePreferences step run one
// independent Select/RSelect per player on the run's executor (DESIGN.md
// §9) — while inside a duel the probes stream whole 64-object word-blocks
// (duelProbesStream, DESIGN.md §17); the bit-at-a-time loop it replaced
// is kept in the tests as its byte-identity oracle. Both functions take the
// read-only *world.World rather than a *world.Run because they only probe (a
// player's private act) and never publish protocol state.
package selection

import (
	"math"
	"math/bits"

	"collabscore/internal/bitvec"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Params holds the tunable constants of the selection protocols. The paper
// specifies Θ(log n) probes per candidate pair and a 2/3 elimination
// threshold; Defaults follows it.
type Params struct {
	// SampleFactor scales the per-pair probe budget of RSelect: each pair
	// probes ⌈SampleFactor · ln n⌉ randomly chosen differing objects.
	SampleFactor float64
	// SelectSampleFactor scales the per-duel probe budget of Select, which
	// runs a linear champion tournament and can therefore afford fewer
	// probes per duel.
	SelectSampleFactor float64
	// EliminateFrac is the agreement fraction above which the losing
	// candidate is eliminated in RSelect (paper: 2/3).
	EliminateFrac float64
	// KeepWithin (Select only): a challenger within KeepWithin·D of the
	// current champion is skipped — either is acceptable under the
	// diameter promise.
	KeepWithin int
}

// Defaults returns the paper's constants.
func Defaults() Params {
	return Params{SampleFactor: 6, SelectSampleFactor: 2, EliminateFrac: 2.0 / 3.0, KeepWithin: 4}
}

// Scaled returns simulation-scale budgets. Duels are cheap here because a
// player's probes are memoized (a duel can never cost more than the object
// set it runs over), so Scaled buys reliability with a larger per-duel
// budget and a tighter skip threshold instead of saving duel probes.
func Scaled() Params {
	return Params{SampleFactor: 1, SelectSampleFactor: 1.5, EliminateFrac: 2.0 / 3.0, KeepWithin: 1}
}

// pairBudget returns the number of probes used per candidate pair.
func pairBudget(factor float64, n int) int {
	k := int(math.Ceil(factor * math.Log(float64(n)+2)))
	if k < 4 {
		k = 4
	}
	return k
}

// RSelect runs the randomized tournament of Figure 1 for player p over the
// given candidates. Each candidate is a vector over objs (bit j of a
// candidate corresponds to global object objs[j]). The returned index
// identifies the surviving candidate; whp its distance to v(p) is O(d*),
// where d* is the distance of the best candidate (Theorem 3), using
// O(k²·log n) probes.
//
// RSelect returns -1 only if candidates is empty.
func RSelect(w *world.World, p int, objs []int, candidates []bitvec.Vector, rng *xrand.Stream, pr Params) int {
	k := len(candidates)
	if k == 0 {
		return -1
	}
	if k == 1 {
		return 0
	}
	budget := pairBudget(pr.SampleFactor, w.N())
	ctx := duelCtx{w: w, p: p, objs: objs, ident: identObjs(objs)}
	alive := make([]bool, k)
	for i := range alive {
		alive[i] = true
	}
	for i := 0; i < k; i++ {
		if !alive[i] {
			continue
		}
		for j := i + 1; j < k; j++ {
			if !alive[j] || !alive[i] {
				continue
			}
			winner := duel(&ctx, candidates[i], candidates[j], rng, budget, pr.EliminateFrac)
			switch winner {
			case 0: // i wins, j eliminated
				alive[j] = false
			case 1: // j wins, i eliminated
				alive[i] = false
			}
		}
	}
	for i, a := range alive {
		if a {
			return i
		}
	}
	return 0 // unreachable: a duel never eliminates both
}

// duelCtx carries one tournament's duel state: the prober's identity, the
// object mapping (with its identity-ness precomputed once — an identity
// mapping lets the streaming path probe whole aligned words).
type duelCtx struct {
	w     *world.World
	p     int
	objs  []int
	ident bool
}

// identObjs reports whether objs is the identity mapping (objs[j] == j) —
// the common case at the final selection, where candidates span the whole
// object set in order.
func identObjs(objs []int) bool {
	for j, o := range objs {
		if o != j {
			return false
		}
	}
	return true
}

// duel probes up to budget objects where a and b differ and returns
// 0 if b should be eliminated, 1 if a should be eliminated, -1 to keep both.
func duel(ctx *duelCtx, a, b bitvec.Vector, rng *xrand.Stream, budget int, frac float64) int {
	agreeA, total := duelProbesStream(ctx, a, b, rng, budget)
	if total == 0 {
		return -1
	}
	if float64(agreeA) >= frac*float64(total) {
		return 0
	}
	if float64(total-agreeA) >= frac*float64(total) {
		return 1
	}
	return -1
}

// maxPairBudget is the size of the on-stack rank buffer. Budgets are
// Θ(log n), so real configurations fit (it would take n ≈ e^21 players to
// exceed it at the paper's SampleFactor 6); a configured budget beyond it
// is honored in full via a heap buffer rather than silently truncated.
const maxPairBudget = 128

// maxRankBitmap bounds the stack bitmap the streaming path uses to track
// Floyd's chosen ranks: when the pair distance fits, membership is a bit
// test and the ascending rank order falls out of bit order for free,
// replacing the serial oracle's O(budget²) rescan-and-sort bookkeeping.
// Larger distances fall back to the oracle's exact bookkeeping, as do
// budgets below minBitmapBudget, where the quadratic bookkeeping is
// cheaper than zeroing the 512-byte bitmap every far duel.
const (
	maxRankBitmap   = 4096
	minBitmapBudget = 24
)

// duelProbesStream probes up to budget objects on which a and b differ —
// all of them when there are at most budget, otherwise a uniform distinct
// sample — and returns how many probed objects agreed with a, plus the
// number probed. It is the word-block streaming duel (DESIGN.md §17): the
// same probed objects, coins, and charges as the bit-at-a-time reference
// loop it replaced (kept in the tests as its oracle), restructured so
// probes leave in 64-object blocks instead of one memo CAS per bit.
//
// The pass structure mirrors the serial oracle exactly — the word-parallel
// Hamming count that sizes the rank sample, then one early-exiting walk of
// the XOR words — but where the serial path fetches each selected position
// with its own Probe (an atomic memo update and a truth read per bit), the
// streaming walk accumulates every selected position of a word into a mask
// and fetches it with a single bulk ProbeWord: one CAS, one truth-word
// read, and one popcount compare for up to 64 objects. Identity object
// mappings (the final selection) map candidate words straight onto world
// words; general mappings batch runs of positions sharing a world word
// (wordProber). Probe charging is identical bit for bit: ProbeWord charges
// exactly the newly learned objects of its mask, and the mask is exactly
// the serial path's probe set. Coins are identical because the Floyd
// sample below is draw-for-draw the serial one and no other branch
// consumes randomness.
func duelProbesStream(ctx *duelCtx, a, b bitvec.Vector, rng *xrand.Stream, budget int) (agreeA, total int) {
	d := a.Hamming(b)
	if d == 0 {
		return 0, 0
	}
	w, p := ctx.w, ctx.p
	nw := a.Words()
	if d <= budget {
		// Probe every differing position, a word-block at a time.
		if ctx.ident {
			for wi := 0; wi < nw; wi++ {
				aw := a.Word(wi)
				x := aw ^ b.Word(wi)
				if x == 0 {
					continue
				}
				tw := w.ProbeWord(p, wi, x)
				agreeA += bits.OnesCount64(^(tw ^ aw) & x)
			}
			return agreeA, d
		}
		bp := wordProber{w: w, p: p, objs: ctx.objs, a: a, curW: -1}
		for wi := 0; wi < nw; wi++ {
			for x := a.Word(wi) ^ b.Word(wi); x != 0; x &= x - 1 {
				bp.add(wi*64 + bits.TrailingZeros64(x))
			}
		}
		bp.flush()
		return bp.agree, d
	}
	// Floyd's sample of budget distinct ranks in [0,d) — draw-for-draw the
	// serial implementation's coins. The chosen set is identical; only the
	// bookkeeping differs: when d fits the stack bitmap, membership is one
	// bit test instead of the serial path's linear rescan, and the ascending
	// order falls out of bit order with no sort. (Floyd's invariant makes
	// the fallback value j always fresh: earlier draws were bounded by
	// earlier, smaller j.)
	var buf [maxPairBudget]int
	ranks := buf[:]
	if budget > maxPairBudget {
		ranks = make([]int, budget)
	}
	cnt := 0
	if budget >= minBitmapBudget && d <= maxRankBitmap {
		var rb [maxRankBitmap / 64]uint64
		rw := (d + 63) / 64
		for j := d - budget; j < d; j++ {
			t := rng.Intn(j + 1)
			if rb[t>>6]>>(uint(t)&63)&1 == 1 {
				t = j
			}
			rb[t>>6] |= 1 << (uint(t) & 63)
			cnt++
		}
		cnt = 0
		for i := 0; i < rw; i++ {
			for x := rb[i]; x != 0; x &= x - 1 {
				ranks[cnt] = i*64 + bits.TrailingZeros64(x)
				cnt++
			}
		}
	} else {
		for j := d - budget; j < d; j++ {
			t := rng.Intn(j + 1)
			for i := 0; i < cnt; i++ {
				if ranks[i] == t {
					t = j
					break
				}
			}
			ranks[cnt] = t
			cnt++
		}
		for i := 1; i < cnt; i++ {
			for k := i; k > 0 && ranks[k] < ranks[k-1]; k-- {
				ranks[k], ranks[k-1] = ranks[k-1], ranks[k]
			}
		}
	}
	// Walk the XOR words once like the serial path, but collapse all ranks
	// landing in one word into a single bulk fetch.
	ri, seen := 0, 0
	if ctx.ident {
		for wi := 0; wi < nw && ri < cnt; wi++ {
			aw := a.Word(wi)
			x := aw ^ b.Word(wi)
			c := bits.OnesCount64(x)
			if ri < cnt && ranks[ri]-seen < c {
				var mask uint64
				for ; ri < cnt && ranks[ri]-seen < c; ri++ {
					y := x
					for k := ranks[ri] - seen; k > 0; k-- {
						y &= y - 1
					}
					mask |= y & -y
				}
				tw := w.ProbeWord(p, wi, mask)
				agreeA += bits.OnesCount64(^(tw ^ aw) & mask)
			}
			seen += c
		}
		return agreeA, cnt
	}
	bp := wordProber{w: w, p: p, objs: ctx.objs, a: a, curW: -1}
	for wi := 0; wi < nw && ri < cnt; wi++ {
		x := a.Word(wi) ^ b.Word(wi)
		c := bits.OnesCount64(x)
		for ; ri < cnt && ranks[ri]-seen < c; ri++ {
			y := x
			for k := ranks[ri] - seen; k > 0; k-- {
				y &= y - 1
			}
			bp.add(wi*64 + bits.TrailingZeros64(y))
		}
		seen += c
	}
	bp.flush()
	return bp.agree, cnt
}

// wordProber batches probes of a general (non-identity) object mapping:
// consecutive candidate positions whose objects share a 64-bit world word
// accumulate into one mask and fetch with a single ProbeWord. Pending
// positions live in a fixed array, so the prober stays on the caller's
// stack and the duel inner loop allocates nothing
// (TestDuelStreamAllocFree).
type wordProber struct {
	w     *world.World
	p     int
	objs  []int
	a     bitvec.Vector
	curW  int
	mask  uint64
	pn    int
	pjs   [64]int32
	agree int
}

// add stages candidate position j (ascending across calls) for probing.
func (bp *wordProber) add(j int) {
	o := bp.objs[j]
	wi := o >> 6
	if wi != bp.curW || bp.pn == len(bp.pjs) {
		bp.flush()
		bp.curW = wi
	}
	bp.mask |= 1 << (uint(o) & 63)
	bp.pjs[bp.pn] = int32(j)
	bp.pn++
}

// flush probes the staged word in bulk and tallies agreements with a.
func (bp *wordProber) flush() {
	if bp.curW < 0 {
		return
	}
	tw := bp.w.ProbeWord(bp.p, bp.curW, bp.mask)
	for i := 0; i < bp.pn; i++ {
		j := int(bp.pjs[i])
		bit := uint(bp.objs[j]) & 63
		if ((tw>>bit)&1 != 0) == bp.a.Get(j) {
			bp.agree++
		}
	}
	bp.curW, bp.mask, bp.pn = -1, 0, 0
}

// Select is the diameter-bounded selection protocol used by SmallRadius:
// given the promise that at least one candidate is within distance d of
// v(p), it returns the index of a candidate within O(d) of v(p), whp.
//
// It runs a linear champion tournament rather than the full pairwise
// tournament of RSelect: challengers within KeepWithin·d of the champion
// are skipped (either is acceptable under the promise), and far challengers
// duel the champion by majority over a small probe sample. The best
// candidate w* wins every far duel whp, so the final champion is w* or a
// candidate within KeepWithin·d of it — within (KeepWithin+1)·d of v(p).
// Probes: O(k·log n) instead of O(k²·log n), which is what lets SmallRadius
// afford a Select per object group. (The paper leaves Select's pseudocode
// to [2]; this variant satisfies the same contract.)
//
// Select returns -1 only if candidates is empty.
func Select(w *world.World, p int, objs []int, candidates []bitvec.Vector, d int, rng *xrand.Stream, pr Params) int {
	k := len(candidates)
	if k == 0 {
		return -1
	}
	if k == 1 {
		return 0
	}
	if d < 1 {
		d = 1
	}
	budget := pairBudget(pr.SelectSampleFactor, w.N())
	ctx := duelCtx{w: w, p: p, objs: objs, ident: identObjs(objs)}
	near := pr.KeepWithin * d
	champ := 0
	for i := 1; i < k; i++ {
		if candidates[champ].Hamming(candidates[i]) <= near {
			continue // equally acceptable; keep the incumbent
		}
		if duelMajority(&ctx, candidates[champ], candidates[i], rng, budget) == 1 {
			champ = i
		}
	}
	return champ
}

// duelMajority probes up to budget differing objects and returns 0 if a
// wins the majority, 1 if b does (ties to the incumbent a).
func duelMajority(ctx *duelCtx, a, b bitvec.Vector, rng *xrand.Stream, budget int) int {
	agreeA, total := duelProbesStream(ctx, a, b, rng, budget)
	if total == 0 {
		return 0
	}
	if 2*agreeA >= total {
		return 0
	}
	return 1
}
