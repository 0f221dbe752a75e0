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
// (duelProbesStream, DESIGN.md §17), and under a general object mapping
// the positions a tournament has already probed come from its probe cache
// (duelCtx); the bit-at-a-time loop both replaced is kept in the tests as
// their byte-identity oracle. Both functions take the
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
// specifies Θ(log n) probes per candidate pair; Defaults follows it.
type Params struct {
	// SampleFactor scales the per-pair probe budget of RSelect: each pair
	// probes ⌈SampleFactor · ln n⌉ randomly chosen differing objects.
	SampleFactor float64
	// SelectSampleFactor scales the per-duel probe budget of Select, which
	// runs a linear champion tournament and can therefore afford fewer
	// probes per duel.
	SelectSampleFactor float64
	// KeepWithin (Select only): a challenger within KeepWithin·D of the
	// current champion is skipped — either is acceptable under the
	// diameter promise.
	KeepWithin int
}

// eliminateFrac is the agreement fraction above which RSelect eliminates
// the losing candidate of a duel (Figure 1's RSelect: 2/3).
const eliminateFrac = 2.0 / 3.0

// Defaults returns the paper's constants.
func Defaults() Params {
	return Params{SampleFactor: 6, SelectSampleFactor: 2, KeepWithin: 4}
}

// Scaled returns simulation-scale budgets. Duels are cheap here because a
// player's probes are memoized (a duel can never cost more than the object
// set it runs over), so Scaled buys reliability with a larger per-duel
// budget and a tighter skip threshold instead of saving duel probes.
func Scaled() Params {
	return Params{SampleFactor: 1, SelectSampleFactor: 1.5, KeepWithin: 1}
}

// pairBudget returns the number of probes used per candidate pair.
func pairBudget(factor float64, n int) int {
	k := int(math.Ceil(factor * math.Log(float64(n)+2)))
	if k < 4 {
		k = 4
	}
	return k
}

// SelectBudget is Params resolved for Select in a run over n players: the
// per-duel probe budget, which depends only on n and SelectSampleFactor,
// and the skip factor. SmallRadius makes one per run (Params.SelectBudget)
// for its many group Selects, so no tournament recomputes a logarithm.
type SelectBudget struct {
	duel, keepWithin int
}

// SelectBudget resolves pr for Select in a run over n players.
func (pr Params) SelectBudget(n int) SelectBudget {
	return SelectBudget{duel: pairBudget(pr.SelectSampleFactor, n), keepWithin: pr.KeepWithin}
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
	var ctx duelCtx
	ctx.init(w, p, objs)
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
			winner := duel(&ctx, candidates[i], candidates[j], rng, budget)
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

// duelCtx carries one tournament's duel state: the player's probe handle
// (inside the wordProber), the object mapping with its identity-ness
// precomputed once — an identity mapping lets the duel probe whole aligned
// words — the stack bitmap Floyd's rank sample is drawn into, and, for a
// general mapping, the tournament's probe cache.
//
// The cache holds two words per candidate word, in candidate-position
// space: which positions this tournament has already probed (known) and
// the truth bits those probes returned (val). It starts from the
// player's Seed, if any, and is filled from the tournament's own charged
// ProbeWord calls, so a cached position was charged earlier to the same
// player and skipping its refetch changes no probe count. The words live
// in the inline cache array up to cacheStack candidate words; only wider
// mappings spill to a heap buffer.
// Both are indexed, never sliced into each other — a slice into the
// context's own array makes the context escape to the heap
// (TestDuelStreamAllocFree pins that a Select allocates nothing).
type duelCtx struct {
	bp    wordProber
	objs  []int
	ident bool
	rank  [maxRankBitmap / 64]uint64
	cache [2 * cacheStack]uint64
	spill []uint64
}

// cacheStack is the candidate word count (256 positions) up to which a
// tournament's probe cache stays inline in its duelCtx.
const cacheStack = 4

// init makes the zero ctx player p's duel state over the object mapping
// objs. It fills the caller's context in place: a context returned by
// value is copied whole (its bitmaps are most of a kilobyte), once per
// tournament.
func (ctx *duelCtx) init(w *world.World, p int, objs []int) {
	ctx.bp.pb, ctx.objs, ctx.ident = w.Prober(p), objs, identObjs(objs)
	if nw := (len(objs) + 63) / 64; !ctx.ident && nw > cacheStack {
		ctx.spill = make([]uint64, 2*nw)
	}
}

// cached returns the known and val words of candidate word wi.
func (ctx *duelCtx) cached(wi int) (known, val *uint64) {
	if ctx.spill != nil {
		return &ctx.spill[2*wi], &ctx.spill[2*wi+1]
	}
	return &ctx.cache[2*wi], &ctx.cache[2*wi+1]
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
func duel(ctx *duelCtx, a, b bitvec.Vector, rng *xrand.Stream, budget int) int {
	agreeA, total := duelProbesStream(ctx, a, b, a.Hamming(b), rng, budget)
	if total == 0 {
		return -1
	}
	if float64(agreeA) >= eliminateFrac*float64(total) {
		return 0
	}
	if float64(total-agreeA) >= eliminateFrac*float64(total) {
		return 1
	}
	return -1
}

// maxRankBitmap bounds the pair distance whose Floyd rank sample fits the
// duel's stack bitmap (512 bytes, zeroed once per tournament; a duel
// clears only the ⌈d/64⌉ words it uses). Wider pairs draw into a heap
// bitmap of the same shape.
const maxRankBitmap = 4096

// duelProbesStream probes up to budget of the d objects on which a and b
// differ (d is their Hamming distance, which the caller has counted) —
// all of them when there are at most budget, otherwise a uniform distinct
// sample — and returns how many probed objects agreed with a, plus the
// number probed. It is the word-level duel (DESIGN.md §17): the same
// probed objects, coins, and charges as the bit-at-a-time reference loop
// it replaced (kept in the tests as its oracle), with every step done a
// 64-bit word at a time.
//
// The pass structure mirrors the serial oracle — the word-parallel
// Hamming count that sizes the rank sample (the caller's d), then one
// early-exiting walk of the XOR words — but each XOR word is handled
// whole: the sampled ranks that fall inside it are cut out of the rank
// bitmap and deposited onto its set bits (deposit), giving the word's
// probe mask at once. Identity
// object mappings (the final selection) fetch that mask with one bulk
// ProbeWord and count agreements with one popcount; general mappings
// answer already-probed positions from the tournament's cache and batch
// the rest through the wordProber. Probe charging is identical bit for
// bit: ProbeWord charges exactly the newly learned objects of its mask,
// the masks cover exactly the serial path's probe set, and a cached
// position was charged earlier to the same player (by an earlier
// ProbeWord of the tournament, or before it for a seeded one), so
// skipping its refetch skips only a free re-probe. Coins are
// identical because the Floyd sample is draw-for-draw the serial one and
// no other branch consumes randomness.
func duelProbesStream(ctx *duelCtx, a, b bitvec.Vector, d int, rng *xrand.Stream, budget int) (agreeA, total int) {
	if d == 0 {
		return 0, 0
	}
	ctx.bp.agree = 0
	nw := a.Words()
	if d <= budget {
		// Probe every differing position, a word-block at a time.
		for wi := 0; wi < nw; wi++ {
			aw := a.Word(wi)
			if x := aw ^ b.Word(wi); x != 0 {
				ctx.probe(wi, x, aw)
			}
		}
		ctx.flush()
		return ctx.bp.agree, d
	}
	rank := ctx.floyd(d, budget, rng)
	// Rank r is the r-th differing position in ascending order, so the
	// ranks landing in one XOR word are the next popcount(x) bits of the
	// rank bitmap after the seen ones; the walk ends after the last rank.
	left, seen := budget, 0
	for wi := 0; left > 0; wi++ {
		aw := a.Word(wi)
		x := aw ^ b.Word(wi)
		c := bits.OnesCount64(x)
		if r := rankBits(rank, seen, c); r != 0 {
			ctx.probe(wi, deposit(r, x), aw)
			left -= bits.OnesCount64(r)
		}
		seen += c
	}
	ctx.flush()
	return ctx.bp.agree, budget
}

// floyd draws Floyd's sample of budget distinct ranks in [0,d) —
// draw-for-draw the serial oracle's coins (xrand.Stream.SampleBits) — into
// a bitmap of ⌈d/64⌉ words: the duel's stack bitmap when d fits it, a heap
// one beyond. Membership is one bit test and ascending rank order is bit
// order, so no rank list is kept, rescanned or sorted.
func (ctx *duelCtx) floyd(d, budget int, rng *xrand.Stream) []uint64 {
	var rank []uint64
	if rw := (d + 63) / 64; rw <= len(ctx.rank) {
		rank = ctx.rank[:rw]
	} else {
		rank = make([]uint64, rw)
	}
	rng.SampleBits(d, budget, rank)
	return rank
}

// rankBits returns the c ≤ 64 bits of rank starting at bit seen, as the
// low bits of a word.
func rankBits(rank []uint64, seen, c int) uint64 {
	wi, sh := seen>>6, uint(seen)&63
	r := rank[wi] >> sh
	if sh != 0 && wi+1 < len(rank) {
		r |= rank[wi+1] << (64 - sh)
	}
	return r & (1<<uint(c) - 1)
}

// deposit places the low bits of r, in order, onto the set bits of x: bit
// k of r keeps the k-th lowest set bit of x (a pure-Go PDEP; r must have
// no bit at or above popcount(x)). It turns the ranks sampled inside one
// XOR word into that word's probe mask in one pass over x's set bits,
// selecting each without a branch (a sampled rank is a coin flip to the
// branch predictor). x changes with every duel, so there are no move
// masks worth compiling, as Extraction does for a fixed list.
func deposit(r, x uint64) (out uint64) {
	for ; r != 0; r >>= 1 {
		low := x & -x
		out |= low & -(r & 1)
		x ^= low
	}
	return out
}

// probe charges the candidate positions set in mask within candidate word
// wi and tallies how many agree with a, whose word wi is aw. An identity
// mapping fetches the whole mask with one ProbeWord. A general mapping
// answers the positions this tournament already probed from its cache
// with one popcount and stages only the rest in the wordProber: a new
// world word, or an object already pending (a mapping that repeats an
// object), flushes first, so every position is counted against its own
// bit of a, and each staged position remembers where its truth bit goes.
func (ctx *duelCtx) probe(wi int, mask, aw uint64) {
	bp := &ctx.bp
	if ctx.ident {
		tw := bp.pb.ProbeWord(wi, mask)
		bp.agree += bits.OnesCount64(^(tw ^ aw) & mask)
		return
	}
	known, val := ctx.cached(wi)
	have := mask & *known
	bp.agree += bits.OnesCount64(^(*val ^ aw) & have)
	need := mask &^ have
	*known |= need
	base := wi * 64
	for ; need != 0; need &= need - 1 {
		k := bits.TrailingZeros64(need)
		o := ctx.objs[base+k]
		ow, sh := o>>6, uint(o)&63
		if ow != bp.curW || bp.mask>>sh&1 != 0 {
			ctx.flush()
			bp.curW = ow
		}
		bp.mask |= 1 << sh
		bp.exp |= (aw >> uint(k) & 1) << sh
		bp.pos[sh] = int32(base + k)
	}
}

// flush probes the pending world word in bulk, tallies agreements with a,
// and writes each returned truth bit back to its candidate position in
// the cache (val starts zero and a position is staged at most once per
// tournament, so only the set bits need writing).
func (ctx *duelCtx) flush() {
	bp := &ctx.bp
	if bp.mask == 0 {
		return
	}
	tw := bp.pb.ProbeWord(bp.curW, bp.mask)
	bp.agree += bits.OnesCount64(^(tw ^ bp.exp) & bp.mask)
	for t := tw & bp.mask; t != 0; t &= t - 1 {
		j := int(bp.pos[bits.TrailingZeros64(t)])
		_, val := ctx.cached(j >> 6)
		*val |= 1 << (uint(j) & 63)
	}
	bp.mask, bp.exp = 0, 0
}

// wordProber batches the probes of a general (non-identity) object
// mapping: consecutive positions whose objects share a 64-bit world word
// accumulate into mask, with a's bits for them in exp and their candidate
// positions in pos (indexed by world bit), and fetch with a single
// ProbeWord whose agreements are one popcount. Nothing is staged on the
// heap, so the prober lives in the caller's duelCtx and the duel
// allocates nothing (TestDuelStreamAllocFree).
type wordProber struct {
	pb        world.Prober
	curW      int
	mask, exp uint64
	pos       [64]int32
	agree     int
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
// A non-nil seed hands the tournament what p already knows of its truth
// over objs (Seed); its positions start in the probe cache.
//
// Select returns -1 only if candidates is empty.
func Select(w *world.World, p int, objs []int, candidates []bitvec.Vector, d int, rng *xrand.Stream, bud SelectBudget, seed *Seed) int {
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
	var ctx duelCtx
	ctx.init(w, p, objs)
	if seed != nil && !ctx.ident {
		for wi, known := range seed.Known {
			kw, val := ctx.cached(wi)
			*kw, *val = known, known&seed.Truth.Word(wi)
		}
	}
	near := bud.keepWithin * d
	champ := 0
	for i := 1; i < k; i++ {
		dist := candidates[champ].Hamming(candidates[i])
		if dist <= near {
			continue // equally acceptable; keep the incumbent
		}
		if duelMajority(&ctx, candidates[champ], candidates[i], dist, rng, bud.duel) == 1 {
			champ = i
		}
	}
	return champ
}

// Seed is what a player already knows of its own truth over a Select's
// object mapping: bit j of Known marks position j (object objs[j]), and
// Truth, indexed like objs, holds the player's truth bit at every marked
// position (its other bits are ignored). Known has one word per
// candidate word. Every marked position must already be charged to the
// player — SmallRadius seeds from the positions the player's own
// ZeroRadius run probed (zeroradius.Learned) — so answering it from the
// cache skips only a free re-probe (DESIGN.md §17). An identity mapping
// has no cache and ignores the seed.
type Seed struct {
	Known []uint64
	Truth bitvec.Vector
}

// duelMajority probes up to budget of the d objects where a and b differ
// and returns 0 if a wins the majority, 1 if b does (ties to the incumbent
// a).
func duelMajority(ctx *duelCtx, a, b bitvec.Vector, d int, rng *xrand.Stream, budget int) int {
	agreeA, total := duelProbesStream(ctx, a, b, d, rng, budget)
	if total == 0 {
		return 0
	}
	if 2*agreeA >= total {
		return 0
	}
	return 1
}
