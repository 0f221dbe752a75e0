// Package zeroradius implements the ZeroRadius protocol of Figure 1
// (originally from Awerbuch et al. [4]): collaborative scoring under the
// assumption that each player belongs to a set of at least |P|/B' players
// with *identical* preferences.
//
// The protocol recursively halves both the player set and the object set.
// Each half solves its own subproblem; the halves then exchange results:
// the vectors output by at least |P”|/(2B') players of the other half form
// a candidate set, and each player disambiguates between candidates by
// probing objects on which they disagree (Figure 1 step 5). Every such
// probe eliminates at least one candidate, and there are at most 2B'
// candidates, so the merge costs O(B') probes per level and O(B'·log n)
// probes overall (Theorem 4). Which object a player probes next depends
// only on the answers it has had, so step 5 is one binary decision tree
// per merge, built once from the candidate set; each player walks it with
// one probe per level.
//
// Dishonest players participate by publishing whatever vectors their
// strategies dictate; they can inject at most a bounded number of candidate
// vectors (each needs |P”|/(2B') supporters), and the probe-to-eliminate
// loop discards any candidate that contradicts the prober's own truth.
package zeroradius

import (
	"math"
	"math/bits"
	"slices"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Figure 1's constants. The base case fires when min(|P|, |O|) is at most
// baseFactor·B'·ln n: every player then probes every object directly.
// Factor 2 keeps the recursion shallow enough that every leaf player-set
// retains ≈2·ln n members of each size-|P|/B' cluster, so the probability
// that a cluster publishes nothing at some merge is ≈n^{-2} — the whp
// regime of Theorem 4 — and the base case costs at most 2·B'·ln n probes,
// within the O(B'·log n) budget. A merge admits the vectors with support
// |P”|/(voteDivisor·B').
const (
	baseFactor  = 2
	voteDivisor = 2
)

// Params carries the protocol's one tunable constant.
type Params struct {
	// BaseObjects, when positive, overrides the base-case threshold for the
	// object dimension only. The paper's B'·log n base case already exceeds
	// realistic object sets at laptop scale; a small absolute object base
	// keeps the recursion (and its probe savings) alive there. The player
	// dimension always keeps the baseFactor·B'·ln n floor: leaf player sets
	// must retain Ω(log n) members of every size-|P|/B' cluster or the
	// publisher side can lose a cluster's vector entirely.
	BaseObjects int
}

// Defaults returns the paper's constants: the base case on both dimensions.
func Defaults() Params { return Params{} }

// Scaled returns simulation-scale constants: a small absolute object-side
// base case (the probe saver) with the same player-side floor as Defaults
// (the concentration guard).
func Scaled() Params { return Params{BaseObjects: 16} }

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
// vectors. The Learned table beside it, also aligned with P, marks where
// each honest player's output is its own charged truth.
//
// The recursion's two halves and every per-player loop (base-case reports,
// cross-fill elimination, vector assembly) fan out on rc's executor with
// per-branch split streams and index-ordered merges, so fixed-seed output
// is byte-identical under any schedule (DESIGN.md §9).
func Run(rc *world.Run, P []int, objs []int, bPrime int, shared *xrand.Stream, pr Params) ([]bitvec.Vector, Learned) {
	if bPrime < 1 {
		bPrime = 1
	}
	z := &zr{rc: rc, bPrime: bPrime}
	z.basePlayers = max(int(math.Ceil(baseFactor*float64(bPrime)*math.Log(float64(rc.N())+2))), 2)
	z.baseObjects = z.basePlayers
	if pr.BaseObjects > 0 {
		z.baseObjects = max(pr.BaseObjects, 2)
	}
	z.learned = newLearned(len(P), len(objs))
	out := make([]bitvec.Vector, len(P))
	if len(P) > 0 {
		z.run(P, nil, objs, nil, shared, out, 0)
	}
	return out, z.learned
}

// Learned is the table Run returns beside its outputs: one row of
// ⌈len(objs)/64⌉ words per entry of P, bit j of row i set when P[i]'s
// output bit j is the truth P[i] itself probed at objs[j]. Only honest
// players learn, at two kinds of positions: their base-case leaf's
// objects (every one probed) and the positions their elimination walks
// probed (the winning candidate agrees with every answer on its path).
// Every learned position is in the player's probe memo, so a later
// protocol step that reads it from here instead of probing it again skips
// only a free probe.
type Learned struct {
	words  []uint64
	stride int
}

// newLearned returns an empty table of rows rows over width positions.
func newLearned(rows, width int) Learned {
	stride := (width + 63) / 64
	return Learned{words: make([]uint64, rows*stride), stride: stride}
}

// Row returns P[i]'s learned words.
func (l Learned) Row(i int) []uint64 {
	return l.words[i*l.stride : (i+1)*l.stride : (i+1)*l.stride]
}

// zr is one Run's fixed state: the run, the cluster bound, the two
// base-case thresholds and the learned table every recursion call writes.
type zr struct {
	rc                       *world.Run
	bPrime                   int
	basePlayers, baseObjects int
	learned                  Learned
}

// run fills out, aligned with P. rows holds each player's row of the
// learned table and pos each object's position in the top-level objs; the
// top call passes nil for both, the identity (topOf). Every call writes only
// its own out slots and its own players' learned rows, and the two
// recursive halves write disjoint fresh slices.
func (z *zr) run(P, rows, objs, pos []int, shared *xrand.Stream, out []bitvec.Vector, depth int) {
	rc := z.rc
	exec := rc.Exec()
	if len(P) <= z.basePlayers || len(objs) <= z.baseObjects {
		// Base case: every player reports every object directly, through
		// the leaf's objects compiled once; an honest report is a probe,
		// so it learns every position, all of them set in the leaf's mask.
		g := bitvec.CompileExtraction(objs, rc.M())
		leaf := make([]uint64, z.learned.stride)
		for k := range objs {
			j := topOf(pos, k)
			leaf[j>>6] |= 1 << (uint(j) & 63)
		}
		exec.For(len(P), func(i int) {
			out[i] = rc.ReportVector(P[i], g)
			if rc.IsHonest(P[i]) {
				row := z.learned.Row(topOf(rows, i))
				for wi, x := range leaf {
					row[wi] |= x
				}
			}
		})
		return
	}

	// Shared random partition of player and object positions into halves.
	// Derive a child stream per recursion node so parallel branches do not
	// race.
	nodeRng := shared.Split(uint64(depth), uint64(len(P)), uint64(len(objs)))
	i0, i1 := splitHalf(nodeRng, len(P))
	j0, j1 := splitHalf(nodeRng, len(objs))
	// One buffer holds every half's picks: players and objects, then
	// below the top also their rows and positions (the identity's picks
	// are the halves themselves).
	size := len(P) + len(objs)
	if rows != nil {
		size *= 2
	}
	buf := make([]int, size)
	r0, r1, q0, q1 := i0, i1, j0, j1
	if rows != nil {
		r0, buf = pick(buf, rows, i0)
		r1, buf = pick(buf, rows, i1)
		q0, buf = pick(buf, pos, j0)
		q1, buf = pick(buf, pos, j1)
	}
	p0, buf := pick(buf, P, i0)
	p1, buf := pick(buf, P, i1)
	o0, buf := pick(buf, objs, j0)
	o1, _ := pick(buf, objs, j1)

	// Recurse on both halves in parallel.
	sub0 := make([]bitvec.Vector, len(p0))
	sub1 := make([]bitvec.Vector, len(p1))
	exec.Do(
		func() { z.run(p0, r0, o0, q0, nodeRng.Split(0), sub0, depth+1) },
		func() { z.run(p1, r1, o1, q1, nodeRng.Split(1), sub1, depth+1) },
	)

	// Cross-fill: players of each half learn the other half's objects from
	// the vectors published by the other half's players.
	cross0 := z.crossFill(p0, r0, o1, q1, sub1) // P0 learns O1
	cross1 := z.crossFill(p1, r1, o0, q0, sub0) // P1 learns O0

	// Assemble full vectors over objs for every player: the two position
	// halves are compiled once, and each player's vector is two scatters
	// of a word-level expand per run.
	h0, h1 := bitvec.CompileExtraction(j0, len(objs)), bitvec.CompileExtraction(j1, len(objs))
	assemble := func(at []int, own []bitvec.Vector, ownPos *bitvec.Extraction, cross []bitvec.Vector, crossPos *bitvec.Extraction) {
		exec.For(len(at), func(i int) {
			v := bitvec.New(len(objs))
			ownPos.Scatter(v, own[i])
			crossPos.Scatter(v, cross[i])
			out[at[i]] = v
		})
	}
	assemble(i0, sub0, h0, cross0, h1)
	assemble(i1, sub1, h1, cross1, h0)
}

// topOf returns the top call's index of local index i under the map xs
// (rows or pos): xs[i], or i itself for the top call's nil maps.
func topOf(xs []int, i int) int {
	if xs == nil {
		return i
	}
	return xs[i]
}

// splitHalf partitions the positions [0, n) into two halves using
// independent fair coins, guaranteeing both halves are non-empty (it moves
// one position if needed). Both halves share one n-slot buffer: a fills
// it from the front and b from the back, then b is reversed into
// ascending order.
func splitHalf(rng *xrand.Stream, n int) (a, b []int) {
	buf := make([]int, n)
	na, nb := 0, n
	for i := 0; i < n; i++ {
		if rng.Bool() {
			buf[na] = i
			na++
		} else {
			nb--
			buf[nb] = i
		}
	}
	a, b = buf[:na:na], buf[na:]
	slices.Reverse(b)
	if len(a) == 0 && len(b) > 1 {
		a, b = b[len(b)-1:], b[:len(b)-1]
	}
	if len(b) == 0 && len(a) > 1 {
		a, b = a[:len(a)-1], a[len(a)-1:]
	}
	return a, b
}

// pick writes xs[idx[0]], xs[idx[1]], … to the front of buf and returns
// them and the rest of buf.
func pick(buf, xs, idx []int) (picked, rest []int) {
	picked, rest = buf[:len(idx):len(idx)], buf[len(idx):]
	for k, i := range idx {
		picked[k] = xs[i]
	}
	return picked, rest
}

// Supported tallies the distinct vectors of pub and returns those that at
// least threshold entries publish (threshold is clamped to ≥ 1), together
// with the topK most supported ones whatever their support, ordered by
// support descending, then Key. Equal vectors are one candidate; the one
// returned is the first of them in pub.
//
// The tally hashes each vector's words into a chained table and compares
// by Equal, and the tie order compares words (keyLess), so no Key string
// is built.
func Supported(pub []bitvec.Vector, threshold float64, topK int) []bitvec.Vector {
	if len(pub) == 0 {
		return nil
	}
	type tally struct {
		first   int32 // index in pub of the vector's first entry
		support int32
		next    int32 // next tally in the same chain, or -1
	}
	var all []tally
	mask := uint64(1)<<bits.Len(uint(2*len(pub)-1)) - 1
	head := make([]int32, mask+1) // chain head + 1; 0 is an empty chain
	for k, v := range pub {
		h := vecHash(v) & mask
		i := head[h] - 1
		for i >= 0 && !pub[all[i].first].Equal(v) {
			i = all[i].next
		}
		if i >= 0 {
			all[i].support++
			continue
		}
		all = append(all, tally{first: int32(k), support: 1, next: head[h] - 1})
		head[h] = int32(len(all))
	}
	slices.SortFunc(all, func(a, b tally) int {
		if a.support != b.support {
			return int(b.support - a.support)
		}
		if keyLess(pub[a.first], pub[b.first]) {
			return -1
		}
		return 1 // distinct vectors never tie
	})
	threshold = max(threshold, 1)
	var out []bitvec.Vector
	for i, c := range all {
		if float64(c.support) >= threshold || i < topK {
			out = append(out, pub[c.first])
		}
	}
	return out
}

// vecHash mixes v's length and words into the tally's chain index.
func vecHash(v bitvec.Vector) uint64 {
	h := uint64(v.Len()) * 0x9E3779B97F4A7C15
	for wi := 0; wi < v.Words(); wi++ {
		h = (h ^ v.Word(wi)) * 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	return h
}

// keyLess reports whether a.Key() < b.Key() without building either key.
// A key is the words' little-endian bytes, then the length's four
// little-endian bytes, so over the words both vectors have, the order is
// that of the byte-reversed words; past them (only vectors of different
// lengths get there) it compares the key bytes themselves.
func keyLess(a, b bitvec.Vector) bool {
	na, nb := a.Words(), b.Words()
	for wi := range min(na, nb) {
		if x, y := a.Word(wi), b.Word(wi); x != y {
			return bits.ReverseBytes64(x) < bits.ReverseBytes64(y)
		}
	}
	la, lb := 8*na+4, 8*nb+4
	for i := 8 * min(na, nb); i < min(la, lb); i++ {
		if x, y := keyByte(a, i), keyByte(b, i); x != y {
			return x < y
		}
	}
	return la < lb
}

// keyByte returns byte i of v.Key().
func keyByte(v bitvec.Vector, i int) byte {
	if wi := i / 8; wi < v.Words() {
		return byte(v.Word(wi) >> (8 * uint(i%8)))
	}
	return byte(v.Len() >> (8 * uint(i-8*v.Words())))
}

// crossFill computes, for every player in learners, its vector over objs
// from the vectors pub that the other half's players published over objs.
// The result is aligned with learners. rows are the learners' rows of the
// learned table and pos the objects' top-level positions, where each
// honest walk marks the positions it probed.
//
// Candidate selection: the paper admits vectors with support
// ≥ |publishers|/(voteDivisor·B'), which bounds the candidate count by
// voteDivisor·B'. At simulation scale, deep recursion leaves can
// under-represent a cluster below that threshold, silently dropping its
// true vector and corrupting the whole subtree; we therefore also admit the
// top 2B' vectors by support. The candidate count stays O(B') — the probe
// budget of the elimination loop is unchanged — and the elimination probes
// discard any junk this lets in.
//
// Elimination (Figure 1 step 5) is one decision tree per merge: the
// probe-to-disambiguate loop is deterministic given the probe answers, so
// every honest learner of this merge walks the same tree over cands,
// built once here, with one probe per internal node (elimTree).
func (z *zr) crossFill(learners, rows, objs, pos []int, pub []bitvec.Vector) []bitvec.Vector {
	rc := z.rc
	cands := Supported(pub, float64(len(pub))/(voteDivisor*float64(z.bPrime)), 2*z.bPrime)
	tree := newElimTree(cands)
	g := bitvec.CompileExtraction(objs, rc.M()) // the dishonest learners' report list
	return par.MapOn(rc.Exec(), len(learners), func(i int) bitvec.Vector {
		p := learners[i]
		if !rc.IsHonest(p) {
			// A dishonest player publishes its strategy's claims rather
			// than running the elimination loop.
			return rc.ReportVector(p, g)
		}
		return tree.walk(rc, p, objs, z.learned.Row(rows[i]), pos)
	})
}

// elimTree is the probe-to-disambiguate loop of Figure 1 step 5 — while
// surviving candidates disagree somewhere, probe such an object and drop
// the candidates that contradict the probe — unrolled into a binary
// decision tree over one candidate set.
//
// The loop takes the first position where a survivor differs from the
// first survivor, probes it, and keeps the survivors that agree, in
// order. Which survivors remain depends only on the answers so far, so
// each tree node is one survivor set: an internal node holds
// the position the loop probes there and one child per answer, and a leaf
// holds the first survivor of a set that is down to one candidate or
// identical on objs. Each probe splits its set into two non-empty parts
// (the two survivors that differ there land on opposite sides), so the
// tree has at most len(cands)−1 internal nodes, and a walk makes at most
// that many probes. A player that matches no candidate (SmallRadius feeds
// groups whose clusters have diameter ≈1, not 0, so it may deviate from
// its cluster's modal vector) still ends at exactly one leaf: the
// candidate its probes lead to. Under an exact zero-radius assumption that
// is the player's own vector.
type elimTree struct {
	cands []bitvec.Vector
	nodes []elimNode
	// root is a node index, or ^i for the leaf holding cands[i].
	root int32
}

// elimNode is one internal node: the candidate position probed there and
// the subtree for each answer (child[1] for true), each a node index or
// ^i for the leaf holding cands[i].
type elimNode struct {
	pos   int32
	child [2]int32
}

// newElimTree builds the elimination tree of cands by replaying the loop
// on every branch: the first disagreement with the branch's first
// survivor, then an order-preserving split on the probed position.
func newElimTree(cands []bitvec.Vector) *elimTree {
	t := &elimTree{cands: cands}
	if len(cands) == 0 {
		return t
	}
	idx := make([]int32, len(cands))
	for i := range idx {
		idx[i] = int32(i)
	}
	t.root = t.build(idx, make([]int32, len(cands)))
	return t
}

// build returns the subtree for the non-empty survivor set idx (candidate
// indices in loop order); tmp is scratch of at least len(idx).
func (t *elimTree) build(idx, tmp []int32) int32 {
	first, j := t.cands[idx[0]], -1
	for _, i := range idx[1:] {
		if j = first.FirstDiff(t.cands[i]); j >= 0 {
			break
		}
	}
	if j < 0 {
		return ^idx[0] // one survivor, or all identical on objs
	}
	// Stable split: the survivors with a 1 at j first, then the rest,
	// each in loop order.
	n1 := 0
	for _, i := range idx {
		if t.cands[i].Get(j) {
			tmp[n1] = i
			n1++
		}
	}
	n0 := n1
	for _, i := range idx {
		if !t.cands[i].Get(j) {
			tmp[n0] = i
			n0++
		}
	}
	copy(idx, tmp[:n0])
	at := int32(len(t.nodes))
	t.nodes = append(t.nodes, elimNode{pos: int32(j)})
	c1 := t.build(idx[:n1], tmp)
	c0 := t.build(idx[n1:], tmp)
	t.nodes[at].child = [2]int32{c0, c1}
	return at
}

// walk runs player p's elimination over objs: one probe per internal node
// on the way down, on the same objects in the same order as the loop. Each
// probed position k is marked in row at bit pos[k]: the winner agrees
// with every answer on its path, so its bits there are p's truth. The winner is returned as-is: candidate vectors are
// shared, immutable inputs, and every downstream consumer only reads them.
// A walk allocates nothing except the empty vector of the degenerate
// shapes.
func (t *elimTree) walk(rc *world.Run, p int, objs []int, row []uint64, pos []int) bitvec.Vector {
	if len(objs) == 0 {
		return bitvec.New(0)
	}
	if len(t.cands) == 0 {
		return bitvec.New(len(objs))
	}
	at := t.root
	for at >= 0 {
		nd := &t.nodes[at]
		j := pos[nd.pos]
		row[j>>6] |= 1 << (uint(j) & 63)
		if rc.Probe(p, objs[nd.pos]) {
			at = nd.child[1]
		} else {
			at = nd.child[0]
		}
	}
	return t.cands[^at]
}
