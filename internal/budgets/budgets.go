// Package budgets implements the §8 extension of the paper: players with
// heterogeneous probing budgets. Some players are willing to probe a large
// number B_big of objects, others only a small number B_small; the paper
// sketches that "each cluster must be chosen to contain a sufficient total
// number of queries among all the members".
//
// This package realizes that sketch on top of the binary substrate:
//
//   - each player carries a capacity (its willingness to probe);
//   - the neighbor graph and peeling are unchanged, but a peeled set only
//     becomes a cluster once its TOTAL capacity reaches the work it must
//     absorb (redundancy · m probes), instead of once it reaches n/B
//     members;
//   - the work-sharing phase assigns probers with probability proportional
//     to capacity, so each player's expected probe count is proportional to
//     what it volunteered.
//
// The accuracy analysis is untouched (cluster diameter still comes from the
// edge threshold; majorities still ≥2/3 honest under the same corruption
// cap), while the probe loads become capacity-weighted.
//
// Everything else is core's: Run is core's binary protocol (core.Iterate
// over core.BinarySteps, then core.RSelectEach) under the caller's
// core.Params with four changes — the budget B comes from the mean
// capacity, the §6.1 easy case is off, the peel is the capacity peel, and
// the board share (core.BoardShare) draws probers by capacity. It returns
// core's result shape (core.Result) with one core.IterationStats per guess.
package budgets

import (
	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/core"
	"collabscore/internal/par"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Uniform returns a capacity vector with every player at c.
func Uniform(n, c int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// TwoTier returns a capacity vector where a fraction bigFrac of players
// volunteer bigCap probes and the rest smallCap, assigned by the stream.
func TwoTier(rng *xrand.Stream, n, smallCap, bigCap int, bigFrac float64) []int {
	out := make([]int, n)
	for i := range out {
		if rng.Bernoulli(bigFrac) {
			out[i] = bigCap
		} else {
			out[i] = smallCap
		}
	}
	return out
}

// meanCapacity returns the average capacity, at least 1.
func meanCapacity(capacity []int) int {
	if len(capacity) == 0 {
		return 1
	}
	t := 0
	for _, c := range capacity {
		t += c
	}
	m := t / len(capacity)
	if m < 1 {
		m = 1
	}
	return m
}

// Run executes the capacity-aware protocol on core's binary protocol:
// capacity[p] is the number of probes player p volunteers. Sampling and
// SmallRadius run at the budget the mean capacity affords, the neighbor
// graph is core's, the capacity peel forms the clusters, and the board
// share draws each object's probers in proportion to capacity, with core's
// RSelect among the guesses. Every other constant comes from pr.
func Run(w *world.World, shared *xrand.Stream, pr core.Params, capacity []int) *core.Result {
	n, m := w.N(), w.M()
	if len(capacity) != n {
		panic("budgets: capacity vector must have one entry per player")
	}
	red := pr.Redundancy(n)
	pr.B = max(1, n/max(1, m*red/meanCapacity(capacity)))
	pr.SmallDThreshold = 0
	rc := world.NewRunOn(w, par.Sched(pr.PhaseSerial, pr.PhaseWorkers))
	st := core.BinarySteps(rc, pr)
	// A seed player and its alive neighbors form a cluster only when their
	// total capacity can absorb the cluster's red·m probes.
	st.Peel = func(g cluster.Graph) *cluster.Clustering { return buildByCapacity(g, capacity, m*red) }
	st.Share = func(cl *cluster.Clustering, s *xrand.Stream, is *core.IterationStats) []bitvec.Vector {
		cum := make([][]int, len(cl.Clusters))
		for j, members := range cl.Clusters {
			cum[j] = make([]int, len(members))
			total := 0
			for i, p := range members {
				total += capacity[p]
				cum[j][i] = total
			}
		}
		return core.BoardShare(core.BinaryDomain(rc), cl, s, is, red, cum)
	}
	cands, res := core.Iterate(shared, pr.DiameterGuesses(n), m, st)
	res.Output = core.RSelectEach(w, rc.Exec(), shared, cands, pr)
	return res
}

// buildByCapacity peels clusters like §6.5 but admits a seed's neighborhood
// as a cluster only when its total capacity reaches needed. It stays
// separate from cluster.Build rather than sharing one loop: the unit peel
// qualifies a seed by a word-parallel LiveDegree count, while this one sums
// its neighbors' capacities, so a shared loop would branch on the caller.
// With unit capacities the two agree (TestCapacityPeelUnitMatchesBuild).
func buildByCapacity(g cluster.Graph, capacity []int, needed int) *cluster.Clustering {
	n := g.N()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	of := make([]int, n)
	for i := range of {
		of[i] = -1
	}
	var clusters [][]int
	// Like cluster.Build's peel, the scan keeps a monotone cursor: peeling
	// only removes players, so a surviving neighborhood's capacity sum can
	// only shrink and a once-rejected seed can never later qualify. The
	// neighbor scans walk the adjacency words in place (VisitNeighbors)
	// instead of materializing a slice per candidate seed.
	cursor := 0
	for {
		found := -1
		for p := cursor; p < n; p++ {
			if !alive[p] {
				continue
			}
			capSum := capacity[p]
			g.VisitNeighbors(p, func(q int) bool {
				if alive[q] {
					capSum += capacity[q]
				}
				return true
			})
			if capSum >= needed {
				found = p
				break
			}
		}
		if found < 0 {
			break
		}
		cursor = found + 1
		members := []int{found}
		g.VisitNeighbors(found, func(q int) bool {
			if alive[q] {
				members = append(members, q)
			}
			return true
		})
		j := len(clusters)
		for _, q := range members {
			alive[q] = false
			of[q] = j
		}
		clusters = append(clusters, members)
	}
	// Attach leftovers to a neighbor's cluster (they add capacity for free).
	// Attachment only writes of[p] — nothing reads alive after the peel,
	// and attachment eligibility is of[q] < 0, so attached players need no
	// alive update (mirrors cluster.Build's attachment phase).
	for p := 0; p < n; p++ {
		if !alive[p] {
			continue
		}
		g.VisitNeighbors(p, func(q int) bool {
			if of[q] < 0 {
				return true
			}
			of[p] = of[q]
			clusters[of[q]] = append(clusters[of[q]], p)
			return false
		})
	}
	return &cluster.Clustering{Clusters: clusters, Of: of}
}
