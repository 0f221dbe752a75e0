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
// Everything else is core's: Run is core's doubling loop (core.Iterate)
// over the binary steps (core.BinarySteps) with SmallRadius at a
// capacity-derived budget and the peel and share replaced, followed by a
// per-player spot check among the guesses (core.SpotCheck on
// core.SelectEach), and it returns core's result shape (core.Result) with
// one core.IterationStats per guess.
package budgets

import (
	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/core"
	"collabscore/internal/par"
	"collabscore/internal/smallradius"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Params configures the heterogeneous-budget protocol.
type Params struct {
	// Capacity[p] is the number of probes player p volunteers (its
	// personal budget). Must be positive for every player.
	Capacity []int
	// SampleFactor / EdgeFactor / RedundancyFactor mirror core.Params.
	SampleFactor     float64
	EdgeFactor       float64
	RedundancyFactor float64
	// SR configures the SmallRadius run on the sample set; its budget
	// parameter is derived from the mean capacity.
	SR smallradius.Params
	// MinD/MaxD restrict the diameter guesses.
	MinD, MaxD int

	// NeighborIndex selects the neighbor-discovery implementation of the
	// clustering step, mirroring core.Params.NeighborIndex: zero value is
	// the exact all-pairs sweep (byte-identical to the pre-seam behavior),
	// Kind "lsh" the banding index (DESIGN.md §13).
	NeighborIndex cluster.IndexSpec

	// PhaseSerial forces the protocol's phase loops onto the
	// single-threaded reference schedule; PhaseWorkers, when positive and
	// PhaseSerial is unset, pins them to exactly that many workers. The
	// flags mirror core.Params (DESIGN.md §9): phase loops fan out on
	// pre-split streams with index-ordered merges, so fixed-seed output is
	// byte-identical under every schedule.
	PhaseSerial  bool
	PhaseWorkers int
}

// Scaled returns simulation-scale parameters with the given capacities.
func Scaled(n int, capacity []int) Params {
	return Params{
		Capacity:         capacity,
		SampleFactor:     1,
		EdgeFactor:       4,
		RedundancyFactor: 1.5,
		SR:               smallradius.Scaled(n),
	}
}

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

// Run executes the capacity-aware protocol on core's doubling loop
// (core.Iterate over core.BinarySteps): sampling and SmallRadius at a
// capacity-derived budget, the neighbor graph, the capacity-validated peel
// and the capacity-weighted share, with a final spot check among the
// guesses (core.SpotCheck, the RSelect analogue).
func Run(w *world.World, shared *xrand.Stream, pr Params) *core.Result {
	n, m := w.N(), w.M()
	if len(pr.Capacity) != n {
		panic("budgets: capacity vector must have one entry per player")
	}
	// The sample, SmallRadius diameter, edge threshold and redundancy use
	// core's formulas over these factors; SmallRadius runs at the budget
	// the mean capacity affords, and the zero SmallDThreshold leaves out
	// core's easy case.
	cp := core.Params{SampleFactor: pr.SampleFactor, SampleDiamFactor: 2,
		EdgeFactor: pr.EdgeFactor, RedundancyFactor: pr.RedundancyFactor,
		NeighborIndex: pr.NeighborIndex, SR: pr.SR}
	red := cp.Redundancy(n)
	cp.B = max(1, n/max(1, m*red/meanCapacity(pr.Capacity)))
	rc := world.NewRunOn(w, par.Sched(pr.PhaseSerial, pr.PhaseWorkers))
	st := core.BinarySteps(rc, cp)
	// A seed player and its alive neighbors form a cluster only when their
	// total capacity can absorb the cluster's red·m probes.
	st.Peel = func(g cluster.Graph) *cluster.Clustering { return buildByCapacity(g, pr.Capacity, m*red) }
	st.Share = func(cl *cluster.Clustering, s *xrand.Stream, _ *core.IterationStats) []bitvec.Vector {
		return weightedShare(rc, cl, s, pr.Capacity, red)
	}
	cands, res := core.Iterate(shared, core.Guesses(pr.MinD, pr.MaxD, n), m, st)
	res.Output = core.SelectEach(rc.Exec(), w, bitvec.New(m), cands, func(p int, col []bitvec.Vector) int {
		return core.SpotCheck(shared.Split(0xFE11, uint64(p)), n, m, len(col), func(ci, o int) int {
			if w.Probe(p, o) != col[ci].Get(o) {
				return 1
			}
			return 0
		})
	})
	return res
}

// weightedShare is the capacity-weighted work sharing: each object of a
// cluster j goes to red members drawn with probability proportional to
// capacity on s.Split(0x5C, j).Split(o), and the cluster adopts the
// majority of their reports. Players in no cluster share one zero vector;
// every member shares its cluster's one majority vector, since candidates
// are never mutated downstream.
func weightedShare(rc *world.Run, cl *cluster.Clustering, s *xrand.Stream, capacity []int, red int) []bitvec.Vector {
	n, m := rc.N(), rc.M()
	out := make([]bitvec.Vector, n)
	zero := bitvec.New(m)
	for p := range out {
		out[p] = zero
	}
	for j, members := range cl.Clusters {
		clusterRng := s.Split(0x5C, uint64(j))
		// Build the sampling weights once per cluster.
		weights := make([]int, len(members))
		total := 0
		for i, p := range members {
			total += capacity[p]
			weights[i] = total
		}
		bits := par.MapOn(rc.Exec(), m, func(o int) bool {
			rng := clusterRng.Split(uint64(o))
			ones, zeros := 0, 0
			for i := 0; i < red; i++ {
				q := members[weightedPick(rng, weights, total)]
				if rc.Report(q, o) {
					ones++
				} else {
					zeros++
				}
			}
			return ones > zeros
		})
		maj := bitvec.New(m)
		for o, b := range bits {
			if b {
				maj.Set(o, true)
			}
		}
		for _, p := range members {
			out[p] = maj
		}
	}
	return out
}

// weightedPick returns an index into the cumulative weight table.
func weightedPick(rng *xrand.Stream, cumWeights []int, total int) int {
	x := rng.Intn(total)
	lo, hi := 0, len(cumWeights)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cumWeights[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
