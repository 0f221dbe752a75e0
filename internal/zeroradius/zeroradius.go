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
// The result maps player id → output vector indexed like objs. Honest
// players in qualifying zero-radius clusters receive their true preferences
// whp; other players receive best-effort vectors.
//
// The recursion's two halves and every per-player loop (base-case reports,
// cross-fill elimination, vector assembly) fan out on rc's executor with
// per-branch split streams and index-ordered merges, so fixed-seed output
// is byte-identical under any schedule (DESIGN.md §9).
func Run(rc *world.Run, P []int, objs []int, bPrime int, shared *xrand.Stream, pr Params) map[int]bitvec.Vector {
	if bPrime < 1 {
		bPrime = 1
	}
	out := make(map[int]bitvec.Vector, len(P))
	var mu chanLock
	run(rc, P, objs, bPrime, shared, pr, out, &mu, 0)
	return out
}

// chanLock is a tiny mutex used to guard the shared output map during the
// parallel recursion; a channel of capacity 1 keeps the dependency surface
// stdlib-only and is uncontended in practice (writes are batched per call).
type chanLock struct{ ch chan struct{} }

func (l *chanLock) lock() {
	if l.ch == nil {
		l.ch = make(chan struct{}, 1)
	}
	l.ch <- struct{}{}
}
func (l *chanLock) unlock() { <-l.ch }

func run(rc *world.Run, P []int, objs []int, bPrime int, shared *xrand.Stream, pr Params, out map[int]bitvec.Vector, mu *chanLock, depth int) {
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
	if len(P) <= basePlayers || len(objs) <= baseObjects {
		// Base case: every player reports every object directly.
		results := par.MapOn(rc.Exec(), len(P), func(i int) bitvec.Vector {
			return rc.ReportVector(P[i], objs)
		})
		mu.lock()
		for i, p := range P {
			out[p] = results[i]
		}
		mu.unlock()
		return
	}

	// Shared random partition of players and objects into halves. Derive a
	// child stream per recursion node so parallel branches do not race.
	nodeRng := shared.Split(uint64(depth), uint64(len(P)), uint64(len(objs)))
	p0, p1 := splitHalf(nodeRng, P)
	o0, o1 := splitHalf(nodeRng, objs)

	// Recurse on both halves in parallel.
	sub0 := make(map[int]bitvec.Vector, len(p0))
	sub1 := make(map[int]bitvec.Vector, len(p1))
	var mu0, mu1 chanLock
	rc.Exec().Do(
		func() { run(rc, p0, o0, bPrime, nodeRng.Split(0), pr, sub0, &mu0, depth+1) },
		func() { run(rc, p1, o1, bPrime, nodeRng.Split(1), pr, sub1, &mu1, depth+1) },
	)

	// Cross-fill: players of each half learn the other half's objects from
	// the vectors published by the other half's players.
	cross0 := crossFill(rc, p0, o1, sub1, p1, bPrime, pr) // P0 learns O1
	cross1 := crossFill(rc, p1, o0, sub0, p0, bPrime, pr) // P1 learns O0

	// Assemble full vectors over objs for every player.
	pos := make(map[int]int, len(objs))
	for j, o := range objs {
		pos[o] = j
	}
	assemble := func(P []int, own map[int]bitvec.Vector, ownObjs []int, cross map[int]bitvec.Vector, crossObjs []int) {
		results := par.MapOn(rc.Exec(), len(P), func(i int) bitvec.Vector {
			p := P[i]
			v := bitvec.New(len(objs))
			if ov, ok := own[p]; ok {
				for j, o := range ownObjs {
					if ov.Get(j) {
						v.Set(pos[o], true)
					}
				}
			}
			if cv, ok := cross[p]; ok {
				for j, o := range crossObjs {
					if cv.Get(j) {
						v.Set(pos[o], true)
					}
				}
			}
			return v
		})
		mu.lock()
		for i, p := range P {
			out[p] = results[i]
		}
		mu.unlock()
	}
	assemble(p0, sub0, o0, cross0, o1)
	assemble(p1, sub1, o1, cross1, o0)
}

// splitHalf partitions xs into two halves using independent fair coins,
// guaranteeing both halves are non-empty (it moves one element if needed).
func splitHalf(rng *xrand.Stream, xs []int) (a, b []int) {
	for _, x := range xs {
		if rng.Bool() {
			a = append(a, x)
		} else {
			b = append(b, x)
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

// candidate is a distinct published vector with its supporter count.
type candidate struct {
	vec     bitvec.Vector
	support int
	key     string
}

// crossFill computes, for every player in learners, its vector over objs
// from the vectors published by the players in publishers (whose outputs
// over objs are in pub).
//
// Candidate selection: the paper admits vectors with support
// ≥ |publishers|/(VoteDivisor·B'), which bounds the candidate count by
// VoteDivisor·B'. At simulation scale, deep recursion leaves can
// under-represent a cluster below that threshold, silently dropping its
// true vector and corrupting the whole subtree; we therefore also admit the
// top 2B' vectors by support. The candidate count stays O(B') — the probe
// budget of the elimination loop is unchanged — and the elimination probes
// discard any junk this lets in.
func crossFill(rc *world.Run, learners []int, objs []int, pub map[int]bitvec.Vector, publishers []int, bPrime int, pr Params) map[int]bitvec.Vector {
	// Tally distinct published vectors.
	tally := make(map[string]*candidate)
	for _, q := range publishers {
		v, ok := pub[q]
		if !ok {
			continue
		}
		k := v.Key()
		if c, ok := tally[k]; ok {
			c.support++
		} else {
			tally[k] = &candidate{vec: v, support: 1}
		}
	}
	all := make([]*candidate, 0, len(tally))
	for k, c := range tally {
		c.key = k
		all = append(all, c)
	}
	// Deterministic order: by support descending, then key.
	sort.Slice(all, func(i, j int) bool {
		if all[i].support != all[j].support {
			return all[i].support > all[j].support
		}
		return all[i].key < all[j].key
	})
	threshold := float64(len(publishers)) / (pr.VoteDivisor * float64(bPrime))
	if threshold < 1 {
		threshold = 1
	}
	topK := 2 * bPrime
	var cands []bitvec.Vector
	for i, c := range all {
		if float64(c.support) >= threshold || i < topK {
			cands = append(cands, c.vec)
		}
	}

	out := make(map[int]bitvec.Vector, len(learners))
	results := par.MapOn(rc.Exec(), len(learners), func(i int) bitvec.Vector {
		p := learners[i]
		if !rc.IsHonest(p) {
			// A dishonest player publishes its strategy's claims rather
			// than running the elimination loop.
			return rc.ReportVector(p, objs)
		}
		return eliminate(rc, p, objs, cands)
	})
	for i, p := range learners {
		out[p] = results[i]
	}
	return out
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
