// Exact pruning by pivot bounds (DESIGN.md §13). Under a correct diameter
// guess the players sit in clusters of diameter O(D), far apart from each
// other (Lemmas 8–9), yet the all-pairs sweep tests every one of the n²/2
// pairs. Both distances the sweep thresholds — Hamming on the z-vectors,
// L1 on the rating rows — are metrics, so the triangle inequality bounds
// d(p, q) from the distances of p and q to a common pivot c:
//
//	|d(p,c) − d(q,c)| ≤ d(p,q) ≤ d(p,c) + d(q,c)
//
// The lower bound rejects a pair without computing it, the upper bound
// accepts one, and only the pairs in between run the exact test. Both are
// exact, so the graph is the sweep's, edge for edge.
package cluster

import (
	"slices"

	"collabscore/internal/par"
)

// maxPivots caps the pivot count. An input that needs more pivots than
// this to put every player within the threshold of one has no cluster
// structure at the threshold's scale; its buckets keep radii above the
// threshold, and the bounds decide fewer of its pairs.
const maxPivots = 16

// pivotSet is the outcome of choosePivots: players grouped into one
// bucket per pivot and each player's distance to every pivot, indexed by
// the player's position in the grouped order.
type pivotSet struct {
	// order lists the players bucket by bucket, by id within a bucket.
	order []int
	// start[c] is the first position of pivot c's bucket; start[k] = n.
	start []int
	// dist[c][i] is the distance from pivot c to player order[i].
	dist [][]int
	// radius[c] is the largest distance from pivot c to its bucket's
	// members.
	radius []int
	// between[c][e] is the distance between pivots c and e.
	between [][]int
}

// choosePivots picks pivots farthest-first, starting at player 0: each
// next pivot is the player farthest from every pivot so far (ties go to
// the lowest id), until every player is within threshold of some pivot or
// there are maxPivots of them. Each player then joins the bucket of its
// nearest pivot (ties go to the earlier pivot), so every bucket's radius
// is at most threshold unless the cap was reached. n must be at least 1;
// dist must be a metric; it is called concurrently on exec.
func choosePivots(exec *par.Runner, n, threshold int, dist func(p, q int) int) *pivotSet {
	var pivots []int
	var byID [][]int // byID[c][p] = dist(pivot c, p)
	nearest := make([]int, n)
	for pv := 0; ; {
		c := len(pivots)
		pivots = append(pivots, pv)
		col := make([]int, n)
		exec.For(n, func(p int) {
			col[p] = dist(pv, p)
			if c > 0 && col[p] < byID[nearest[p]][p] {
				nearest[p] = c
			}
		})
		byID = append(byID, col)
		// The farthest player from its nearest pivot so far.
		far := -1
		for p, k := range nearest {
			if d := byID[k][p]; d > far {
				far, pv = d, p
			}
		}
		if far <= threshold || len(pivots) == maxPivots {
			break
		}
	}

	k := len(pivots)
	ps := &pivotSet{
		order:   make([]int, n),
		start:   make([]int, k+1),
		dist:    make([][]int, k),
		radius:  make([]int, k),
		between: make([][]int, k),
	}
	for _, c := range nearest {
		ps.start[c+1]++
	}
	for c := range k {
		ps.start[c+1] += ps.start[c]
	}
	next := slices.Clone(ps.start[:k])
	for p, c := range nearest {
		ps.order[next[c]] = p
		next[c]++
		ps.radius[c] = max(ps.radius[c], byID[c][p])
	}
	for c := range k {
		ps.dist[c] = make([]int, n)
		for i, p := range ps.order {
			ps.dist[c][i] = byID[c][p]
		}
		ps.between[c] = make([]int, k)
		for e, pe := range pivots {
			ps.between[c][e] = byID[c][pe]
		}
	}
	return ps
}

// tiles cuts the bucket pairs that can hold an edge into blockRows ×
// blockRows tiles. Buckets a and b hold no pair within threshold when
// d(a, b) − R_a − R_b > threshold, since every such pair is at least that
// far apart; those bucket pairs are skipped whole.
func (ps *pivotSet) tiles(threshold int) []pairTile {
	var out []pairTile
	k := len(ps.radius)
	for a := range k {
		for b := a; b < k; b++ {
			if ps.between[a][b]-ps.radius[a]-ps.radius[b] > threshold {
				continue
			}
			out = appendTiles(out, ps.start[a], ps.start[a+1], ps.start[b], ps.start[b+1], a, b)
		}
	}
	return out
}

// sweepTile decides every pair of one tile, emitting the edges through buf
// (emitEdge) and returning it. A pair (p, q) from buckets a and b is first
// bounded through pivot a, then through pivot b: a sum within threshold
// accepts it, a difference beyond threshold rejects it, and within runs
// only when neither pivot decides. Past the pivot cap a player can lie
// beyond threshold of its own pivot, so pivot a's difference counts in
// either direction. Pivot b's needs only one: q is no farther from b than
// from a, and p no nearer to b than to a, so d(q,b) − d(p,b) ≤
// d(q,a) − d(p,a), which pivot a has already found within threshold.
func (ps *pivotSet) sweepTile(t pairTile, threshold int, within func(p, q int) bool, sink graphSink, buf [][2]int32) [][2]int32 {
	da, db := ps.dist[t.a], ps.dist[t.b]
	for i := t.iLo; i < t.iHi; i++ {
		p := ps.order[i]
		pa, pb := da[i], db[i]
		jLo := t.jLo
		if t.iLo == t.jLo {
			jLo = i + 1
		}
		for j := jLo; j < t.jHi; j++ {
			qa := da[j]
			if pa+qa <= threshold {
				buf = emitEdge(sink, buf, p, ps.order[j])
				continue
			}
			if max(pa-qa, qa-pa) > threshold {
				continue
			}
			if t.a != t.b {
				qb := db[j]
				if pb+qb <= threshold {
					buf = emitEdge(sink, buf, p, ps.order[j])
					continue
				}
				if pb-qb > threshold {
					continue
				}
			}
			if q := ps.order[j]; within(p, q) {
				buf = emitEdge(sink, buf, p, q)
			}
		}
	}
	return buf
}
