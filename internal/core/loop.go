package core

import (
	"collabscore/internal/cluster"
	"collabscore/internal/election"
	"collabscore/internal/par"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Outcome is the output of one protocol run over candidate type T: the
// binary protocol (Result), the capacity variant (budgets) and the rating
// protocol (multival) all return it.
type Outcome[T any] struct {
	// Output[p] is the predicted vector for player p (length m). Entries
	// for dishonest players are meaningless.
	Output []T
	// Iterations holds per-diameter-guess statistics. For honest-randomness
	// runs it covers the single doubling loop; for Byzantine runs it holds
	// the statistics of the last repetition that elected an honest leader
	// (empty if every leader was dishonest — Reps has the full picture).
	Iterations []IterationStats
	// Reps holds per-repetition statistics (Byzantine runs only).
	Reps []RepetitionStats
	// HonestLeaders counts Byzantine repetitions that elected an honest
	// leader (Byzantine runs only).
	HonestLeaders int
	// Repetitions is the number of Byzantine repetitions executed.
	Repetitions int
	// BoardWrites and BoardReads account the bulletin-board communication
	// of the work-sharing phases (§8 raises communication cost as an open
	// question; we measure it).
	BoardWrites int64
	BoardReads  int64
}

// Steps are one protocol family's parts of the Figure 2 doubling loop,
// which Iterate runs in order for every diameter guess. Each step receives
// the guess's stream s and splits its own coins from it.
type Steps[T any] struct {
	// Pub is the published state the family's adversaries observe.
	Pub *world.Public
	// Easy, when set, may settle guess d without sampling (§6.1's small-D
	// case) by returning every player's candidate; nil sends the guess down
	// the sampling path.
	Easy func(d int, s *xrand.Stream) []T
	// Rate is the per-object sample inclusion probability at guess d.
	Rate func(d int) float64
	// Estimate returns every player's estimate on the sample.
	Estimate func(sample []int, s *xrand.Stream) []T
	// Graph connects the players whose estimates are close at guess d.
	Graph func(z []T, d int, s *xrand.Stream) cluster.Graph
	// Peel cuts the neighbor graph into clusters.
	Peel func(g cluster.Graph) *cluster.Clustering
	// Share splits the probing of every object within each cluster and
	// returns one candidate per player, recording board traffic on st.
	Share func(cl *cluster.Clustering, s *xrand.Stream, st *IterationStats) []T
}

// Iterate runs the doubling loop of Figure 2 over the diameter guesses:
// guess gi (diameter d) runs on shared.Split(gi, d), draws its sample of
// the m objects on that stream's Split(0x5A) and records one
// IterationStats. It returns the candidate table — cands[gi][p] is player
// p's vector from guess gi — and an outcome holding the per-guess
// statistics and board totals, for the caller's final selection.
func Iterate[T any](shared *xrand.Stream, guesses []int, m int, st Steps[T]) ([][]T, *Outcome[T]) {
	res := &Outcome[T]{}
	cands := make([][]T, len(guesses))
	for gi, d := range guesses {
		is := IterationStats{D: d}
		cands[gi] = st.iteration(d, m, shared.Split(uint64(gi), uint64(d)), &is)
		res.Iterations = append(res.Iterations, is)
		res.BoardWrites += is.BoardWrites
		res.BoardReads += is.BoardReads
	}
	return cands, res
}

// iteration runs guess d: the easy case when it applies, otherwise sample,
// estimate, neighbor graph, peel and share (Figure 2 steps 1.b–1.e),
// publishing each phase and its state on Pub as it goes.
func (st Steps[T]) iteration(d, m int, s *xrand.Stream, is *IterationStats) []T {
	pub := st.Pub
	pub.TargetDiameter = d
	if st.Easy != nil {
		if out := st.Easy(d, s); out != nil {
			is.UsedFullSR = true
			return out
		}
	}
	pub.Phase = "sample"
	sample := DrawSample(s.Split(0x5A), m, st.Rate(d))
	pub.SetSample(sample)
	is.SampleSize = len(sample)

	pub.Phase = "smallradius"
	cl := st.Peel(st.Graph(st.Estimate(sample, s), d, s))
	pub.Clusters = cl.Clusters
	is.NumClusters = len(cl.Clusters)
	is.MinCluster = cl.MinClusterSize()
	is.Unassigned = len(cl.Unassigned())

	pub.Phase = "workshare"
	out := st.Share(cl, s, is)
	pub.SetSample(nil)
	pub.Clusters = nil
	return out
}

// SelectEach is every protocol family's final selection (Figure 2 step 2),
// fanned out over players on exec: each honest player p keeps
// col[pick(p, col)], where col holds its candidates cands[·][p] in
// candidate order, and every dishonest player gets the one shared zero.
// pick must draw its coins from a stream split by p, so the outcome is the
// same under every schedule.
func SelectEach[T any](exec *par.Runner, w election.Roster, zero T, cands [][]T, pick func(p int, col []T) int) []T {
	out := make([]T, w.N())
	exec.For(len(out), func(p int) {
		if !w.IsHonest(p) {
			out[p] = zero
			return
		}
		col := make([]T, len(cands))
		for ci := range cands {
			col[ci] = cands[ci][p]
		}
		out[p] = col[pick(p, col)]
	})
	return out
}

// ForCells drives a work-sharing step over (cluster, word-block) cells —
// 64 of the m objects per cell — on exec. It splits cluster j's stream once
// as stream(j), makes one scratch per worker with newScratch(maxMembers),
// maxMembers being the largest cluster's size, and calls
// body(sc, rng, j, wb, base, hi) for cell (j, wb), whose objects are
// [base, hi) and whose cluster stream is rng. A body must leave its
// scratch as it found it, so no state crosses cells and the result is the
// same under every schedule (par.Runner.ForWorker).
func ForCells[S any](exec *par.Runner, clusters [][]int, m int, stream func(j int) xrand.Stream,
	newScratch func(maxMembers int) S, body func(sc S, rng *xrand.Stream, j, wb, base, hi int)) {
	maxMembers := 0
	streams := make([]xrand.Stream, len(clusters))
	for j, members := range clusters {
		maxMembers = max(maxMembers, len(members))
		streams[j] = stream(j)
	}
	words := (m + 63) / 64
	cells := len(clusters) * words
	scratches := make([]S, exec.Workers(cells))
	for i := range scratches {
		scratches[i] = newScratch(maxMembers)
	}
	exec.ForWorker(cells, func(wk, cell int) {
		j, wb := cell/words, cell%words
		body(scratches[wk], &streams[j], j, wb, wb*64, min(wb*64+64, m))
	})
}

// Broadcast returns every player's candidate from a work-sharing step:
// the members of cluster j all share vecs[j] and players in no cluster
// share zero. Candidates are never mutated downstream, so a per-member
// clone would be pure allocation.
func Broadcast[T any](n int, zero T, clusters [][]int, vecs []T) []T {
	out := make([]T, n)
	for p := range out {
		out[p] = zero
	}
	for j, members := range clusters {
		for _, p := range members {
			out[p] = vecs[j]
		}
	}
	return out
}
