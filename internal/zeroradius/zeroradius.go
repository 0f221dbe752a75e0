// Package zeroradius implements the ZeroRadius protocol of Figure 1
// (originally from Awerbuch et al. [4]): collaborative scoring under the
// assumption that each player belongs to a set of at least |P|/B' players
// with *identical* preferences.
//
// The protocol recursively halves both the player set and the object set.
// Each half solves its own subproblem; the halves then exchange results:
// the vectors output by at least |P”|/(2B') players of the other half form
// a candidate set, and each player disambiguates between candidates by
// probing objects on which they disagree. Every such probe eliminates at
// least one candidate, and there are at most 2B' candidates, so the merge
// costs O(B') probes per level and O(B'·log n) probes overall (Theorem 4).
//
// Dishonest players participate by publishing whatever vectors their
// strategies dictate; they can inject at most a bounded number of candidate
// vectors (each needs |P”|/(2B') supporters), and the probe-to-eliminate
// loop discards any candidate that contradicts the prober's own truth.
package zeroradius

import (
	"math"
	"sort"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Params carries the protocol's tunable constants.
type Params struct {
	// BaseFactor sets the recursion base case: when min(|P|, |O|) is at most
	// BaseFactor·B'·ln n, every player probes every object directly.
	BaseFactor float64
	// BaseObjects, when positive, overrides the base-case threshold for the
	// object dimension only. The paper's B'·log n base case already exceeds
	// realistic object sets at laptop scale; a small absolute object base
	// keeps the recursion (and its probe savings) alive there. The player
	// dimension always keeps the BaseFactor·B'·ln n floor: leaf player sets
	// must retain Ω(log n) members of every size-|P|/B' cluster or the
	// publisher side can lose a cluster's vector entirely.
	BaseObjects int
	// VoteDivisor sets the candidate support threshold |P''|/(VoteDivisor·B')
	// (paper: 2).
	VoteDivisor float64
}

// Defaults returns the paper's constants. BaseFactor 2 keeps the recursion
// shallow enough that every leaf player-set retains ≈2·ln n members of each
// size-|P|/B' cluster, so the probability that a cluster publishes nothing
// at some merge is ≈n^{-2} — the whp regime of Theorem 4. The base case
// then costs at most 2·B'·ln n probes, within the O(B'·log n) budget.
func Defaults() Params { return Params{BaseFactor: 2, VoteDivisor: 2} }

// Scaled returns simulation-scale constants: a small absolute object-side
// base case (the probe saver) with the same player-side floor as Defaults
// (the concentration guard).
func Scaled() Params { return Params{BaseFactor: 2, BaseObjects: 16, VoteDivisor: 2} }

// Run executes ZeroRadius for every player in P over the objects objs
// (global ids), with cluster-size bound B' (the protocol assumes each
// honest player has ≥ |P|/B' identical peers in P). shared supplies the
// shared randomness (partitions); each player's private elimination coins
// are split from it per player id, which is harmless because elimination
// probes are verified against the player's own truth.
//
// The result is aligned with P: out[i] is player P[i]'s output vector,
// indexed like objs. Honest players in qualifying zero-radius clusters
// receive their true preferences whp; other players receive best-effort
// vectors.
//
// The recursion's two halves and every per-player loop (base-case reports,
// cross-fill elimination, vector assembly) fan out on rc's executor with
// per-branch split streams and index-ordered merges, so fixed-seed output
// is byte-identical under any schedule (DESIGN.md §9).
func Run(rc *world.Run, P []int, objs []int, bPrime int, shared *xrand.Stream, pr Params) []bitvec.Vector {
	if bPrime < 1 {
		bPrime = 1
	}
	out := make([]bitvec.Vector, len(P))
	run(rc, P, objs, bPrime, shared, pr, out, 0)
	return out
}

// run fills out, aligned with P. Every call writes only its own out slots,
// and the two recursive halves write disjoint fresh slices.
func run(rc *world.Run, P []int, objs []int, bPrime int, shared *xrand.Stream, pr Params, out []bitvec.Vector, depth int) {
	n := rc.N()
	basePlayers := int(math.Ceil(pr.BaseFactor * float64(bPrime) * math.Log(float64(n)+2)))
	if basePlayers < 2 {
		basePlayers = 2
	}
	baseObjects := basePlayers
	if pr.BaseObjects > 0 {
		baseObjects = pr.BaseObjects
	}
	if baseObjects < 2 {
		baseObjects = 2
	}
	if len(P) == 0 {
		return
	}
	exec := rc.Exec()
	if len(P) <= basePlayers || len(objs) <= baseObjects {
		// Base case: every player reports every object directly.
		exec.For(len(P), func(i int) { out[i] = rc.ReportVector(P[i], objs) })
		return
	}

	// Shared random partition of player and object positions into halves.
	// Derive a child stream per recursion node so parallel branches do not
	// race.
	nodeRng := shared.Split(uint64(depth), uint64(len(P)), uint64(len(objs)))
	i0, i1 := splitHalf(nodeRng, len(P))
	j0, j1 := splitHalf(nodeRng, len(objs))
	p0, p1 := pick(P, i0), pick(P, i1)
	o0, o1 := pick(objs, j0), pick(objs, j1)

	// Recurse on both halves in parallel.
	sub0 := make([]bitvec.Vector, len(p0))
	sub1 := make([]bitvec.Vector, len(p1))
	exec.Do(
		func() { run(rc, p0, o0, bPrime, nodeRng.Split(0), pr, sub0, depth+1) },
		func() { run(rc, p1, o1, bPrime, nodeRng.Split(1), pr, sub1, depth+1) },
	)

	// Cross-fill: players of each half learn the other half's objects from
	// the vectors published by the other half's players.
	cross0 := crossFill(rc, p0, o1, sub1, bPrime, pr) // P0 learns O1
	cross1 := crossFill(rc, p1, o0, sub0, bPrime, pr) // P1 learns O0

	// Assemble full vectors over objs for every player.
	assemble := func(at []int, own []bitvec.Vector, ownPos []int, cross []bitvec.Vector, crossPos []int) {
		exec.For(len(at), func(i int) {
			v := bitvec.New(len(objs))
			v.Scatter(ownPos, own[i])
			v.Scatter(crossPos, cross[i])
			out[at[i]] = v
		})
	}
	assemble(i0, sub0, j0, cross0, j1)
	assemble(i1, sub1, j1, cross1, j0)
}

// splitHalf partitions the positions [0, n) into two halves using
// independent fair coins, guaranteeing both halves are non-empty (it moves
// one position if needed).
func splitHalf(rng *xrand.Stream, n int) (a, b []int) {
	for i := 0; i < n; i++ {
		if rng.Bool() {
			a = append(a, i)
		} else {
			b = append(b, i)
		}
	}
	if len(a) == 0 && len(b) > 1 {
		a = append(a, b[len(b)-1])
		b = b[:len(b)-1]
	}
	if len(b) == 0 && len(a) > 1 {
		b = append(b, a[len(a)-1])
		a = a[:len(a)-1]
	}
	return a, b
}

// pick returns xs[idx[0]], xs[idx[1]], ….
func pick(xs, idx []int) []int {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = xs[i]
	}
	return out
}

// Supported tallies the distinct vectors of pub and returns those that at
// least threshold entries publish (threshold is clamped to ≥ 1), together
// with the topK most supported ones whatever their support, ordered by
// support descending, then Key. Equal vectors are one candidate; the one
// returned is the first of them in pub.
func Supported(pub []bitvec.Vector, threshold float64, topK int) []bitvec.Vector {
	type tally struct {
		vec     bitvec.Vector
		key     string
		support int
	}
	var all []tally
	at := make(map[string]int)
	for _, v := range pub {
		k := v.Key()
		if i, ok := at[k]; ok {
			all[i].support++
			continue
		}
		at[k] = len(all)
		all = append(all, tally{vec: v, key: k, support: 1})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].support != all[j].support {
			return all[i].support > all[j].support
		}
		return all[i].key < all[j].key
	})
	threshold = max(threshold, 1)
	var out []bitvec.Vector
	for i, c := range all {
		if float64(c.support) >= threshold || i < topK {
			out = append(out, c.vec)
		}
	}
	return out
}

// crossFill computes, for every player in learners, its vector over objs
// from the vectors pub that the other half's players published over objs.
// The result is aligned with learners.
//
// Candidate selection: the paper admits vectors with support
// ≥ |publishers|/(VoteDivisor·B'), which bounds the candidate count by
// VoteDivisor·B'. At simulation scale, deep recursion leaves can
// under-represent a cluster below that threshold, silently dropping its
// true vector and corrupting the whole subtree; we therefore also admit the
// top 2B' vectors by support. The candidate count stays O(B') — the probe
// budget of the elimination loop is unchanged — and the elimination probes
// discard any junk this lets in.
func crossFill(rc *world.Run, learners []int, objs []int, pub []bitvec.Vector, bPrime int, pr Params) []bitvec.Vector {
	cands := Supported(pub, float64(len(pub))/(pr.VoteDivisor*float64(bPrime)), 2*bPrime)
	return par.MapOn(rc.Exec(), len(learners), func(i int) bitvec.Vector {
		p := learners[i]
		if !rc.IsHonest(p) {
			// A dishonest player publishes its strategy's claims rather
			// than running the elimination loop.
			return rc.ReportVector(p, objs)
		}
		return eliminate(rc, p, objs, cands)
	})
}

// eliminateStack is the candidate count up to which eliminate keeps its
// survivor buffer on the stack; larger candidate sets (rare: the set is
// O(B')) fall back to the heap.
const eliminateStack = 128

// eliminate runs the probe-to-disambiguate loop of Figure 1 step 5 for one
// player: while surviving candidates disagree somewhere, probe such an
// object and drop the candidates that contradict the probe.
//
// Each probe is taken at a position where two survivors disagree, so it
// keeps at least one survivor and drops at least one: the loop ends after
// at most len(cands)-1 probes with one survivor, or with survivors that are
// identical on objs, and the first of them is the answer. Under an exact
// zero-radius assumption that is the player's own vector. A player that
// matches no candidate (SmallRadius feeds groups whose clusters have
// diameter ≈1, not 0, so it may deviate from its cluster's modal vector)
// still ends with exactly one: the candidate its probes lead to.
//
// The winner is returned as-is: candidate vectors are shared, immutable
// inputs, and every downstream consumer only reads them. eliminate runs
// once per learner per merge and allocates nothing up to eliminateStack
// candidates.
func eliminate(rc *world.Run, p int, objs []int, cands []bitvec.Vector) bitvec.Vector {
	if len(objs) == 0 {
		return bitvec.New(0)
	}
	if len(cands) == 0 {
		return bitvec.New(len(objs))
	}
	var buf [eliminateStack]bitvec.Vector
	survivors := buf[:]
	if len(cands) > eliminateStack {
		survivors = make([]bitvec.Vector, len(cands))
	}
	survivors = survivors[:copy(survivors, cands)]
	for len(survivors) > 1 {
		j := firstDisagreement(survivors)
		if j < 0 {
			break // all survivors identical on objs
		}
		truth := rc.Probe(p, objs[j])
		k := 0
		for _, c := range survivors {
			if c.Get(j) == truth {
				survivors[k] = c
				k++
			}
		}
		survivors = survivors[:k]
	}
	return survivors[0]
}

// firstDisagreement returns an index where at least two of the vectors
// differ, or -1 if all vectors are identical. FirstDiff scans words and
// allocates nothing — this runs once per elimination probe per learner,
// and materializing every difference (DiffIndices) just to take the first
// was the elimination loop's main allocation.
func firstDisagreement(vs []bitvec.Vector) int {
	base := vs[0]
	for _, v := range vs[1:] {
		if d := base.FirstDiff(v); d >= 0 {
			return d
		}
	}
	return -1
}
