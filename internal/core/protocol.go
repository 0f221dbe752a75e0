package core

import (
	"slices"

	"collabscore/internal/bitvec"
	"collabscore/internal/board"
	"collabscore/internal/cluster"
	"collabscore/internal/election"
	"collabscore/internal/par"
	"collabscore/internal/selection"
	"collabscore/internal/smallradius"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// IterationStats records what one diameter guess of the protocol did, for
// experiment instrumentation.
type IterationStats struct {
	D           int // diameter guess
	SampleSize  int // |S|
	NumClusters int
	MinCluster  int
	Unassigned  int  // players not placed in any cluster
	UsedFullSR  bool // true when the small-D easy case ran
	// BoardWrites/BoardReads are the bulletin-board traffic of this
	// iteration's work-sharing phase.
	BoardWrites int64
	BoardReads  int64
}

// RepetitionStats records what one Byzantine repetition did.
type RepetitionStats struct {
	// Leader is the player elected for this repetition; HonestLeader
	// reports whether it follows the protocol.
	Leader       int
	HonestLeader bool
	// Iterations holds the repetition's per-diameter-guess statistics
	// (empty for dishonest-leader repetitions, which run no protocol —
	// see the worst-case model in DESIGN.md §3).
	Iterations []IterationStats
	// BoardWrites/BoardReads are the repetition's bulletin-board traffic.
	BoardWrites int64
	BoardReads  int64
}

// Result is the output of one binary protocol run.
type Result = Outcome[bitvec.Vector]

// phaseExec returns the executor protocol phases run on: the serial
// reference schedule when pr.PhaseSerial is set, the default parallel one
// otherwise (DESIGN.md §9).
func phaseExec(pr Params) *par.Runner {
	return par.Sched(pr.PhaseSerial, pr.PhaseWorkers)
}

// Run executes CalculatePreferences assuming unbiased shared randomness
// (the honest-randomness setting of §6; dishonest players may still lie
// about preferences). Use RunByzantine for the full §7 protocol with
// leader election.
func Run(w *world.World, shared *xrand.Stream, pr Params) *Result {
	rc := world.NewRunOn(w, phaseExec(pr))
	cands, res := Iterate(shared, pr.DiameterGuesses(rc.N()), rc.M(), BinarySteps(rc, pr))
	res.Output = RSelectEach(w, rc.Exec(), shared, cands, pr)
	return res
}

// BinarySteps returns the binary protocol's steps of the doubling loop
// over rc: the easy case below SmallDThreshold·ln n on the full object set
// (coins 0xF0), SmallRadius at budget pr.B on the sample (0x5B), the
// NeighborIndex graph (0x5D), the greedy peel (cluster.Build) and the
// uniform board share (BoardShare). The capacity variant (budgets) swaps in
// its own peel and capacity weights for the share.
func BinarySteps(rc *world.Run, pr Params) Steps[bitvec.Vector] {
	n, m := rc.N(), rc.M()
	return Steps[bitvec.Vector]{
		Pub: &rc.Pub,
		Easy: func(d int, s *xrand.Stream) []bitvec.Vector {
			if float64(d) >= pr.SmallDThreshold*LnN(n) {
				return nil
			}
			rc.Pub.Phase = "smallradius-full"
			return smallradius.Run(rc, identity(m), d, pr.B, s.Split(0xF0), pr.SR)
		},
		Rate: func(d int) float64 { return pr.SampleProb(n, d) },
		Estimate: func(sample []int, s *xrand.Stream) []bitvec.Vector {
			return smallradius.Run(rc, sample, pr.SampleDiameter(n), pr.B, s.Split(0x5B), pr.SR)
		},
		Graph: func(z []bitvec.Vector, _ int, s *xrand.Stream) cluster.Graph {
			return pr.NeighborIndex.BuildGraph(rc.Exec(), z, pr.EdgeThreshold(n), s.Split(0x5D))
		},
		Peel: func(g cluster.Graph) *cluster.Clustering { return cluster.Build(g, pr.MinClusterSize(n)) },
		Share: func(cl *cluster.Clustering, s *xrand.Stream, is *IterationStats) []bitvec.Vector {
			return BoardShare(rc, cl, s, is, pr.Redundancy(n), nil)
		},
	}
}

// BoardShare is the work-sharing step on a fresh bulletin board: probers
// publish to their own lanes and every cluster member tallies the votes
// (workShare on coins s.Split(0x5C)), recording the board traffic on is.
// cum[j], when cum is non-nil, holds cluster j's cumulative member weights
// and draws probers in proportion to them; nil draws them uniformly.
func BoardShare(rc *world.Run, cl *cluster.Clustering, s *xrand.Stream, is *IterationStats, red int, cum [][]int) []bitvec.Vector {
	bd := board.New(rc.N(), rc.M())
	out := workShare(rc, bd, cl, s.Split(0x5C), red, cum)
	is.BoardWrites = bd.WriteCount()
	is.BoardReads = bd.ReadCount()
	return out
}

// workShare assigns, for every cluster and every object, red randomly
// chosen cluster members to probe the object — uniformly, or in proportion
// to the cumulative weights cum[j] when cum is non-nil; the probers publish
// their reports on the bulletin board, and each member of the cluster
// adopts the majority of the published votes (Figure 2 step 1.e). Players
// in no cluster receive zero vectors, which the final RSelect discards.
//
// It runs as two fan-out phases separated by a board barrier (DESIGN.md
// §7), both over (cluster, word-block) cells — 64 objects per cell — on
// the word-level data path (DESIGN.md §10). The publish phase picks each
// object's probers with shared coins split per (cluster, object) from
// stack-value streams, dedups them with an in-place scan, accumulates each
// prober's 64-object assignment mask in a per-worker scratch arena, and
// flushes one report word (bulk probes for honest probers) and one board
// word write per (prober, block) — a dishonest prober still cannot touch
// other lanes. After Freeze seals the board, the tally phase computes each
// cluster's per-object majorities a word at a time (Frozen.MajorityWord)
// and every member shares the cluster's one immutable majority vector —
// candidates are never mutated downstream, so the per-member clone would
// be pure allocation. Prober choice, published values (first-write-wins)
// and majorities are pure functions of the split streams, so the output is
// identical under any schedule; scratch arenas hold no cross-cell state.
func workShare(rc *world.Run, bd *board.Board, cl *cluster.Clustering, shared *xrand.Stream, red int, cum [][]int) []bitvec.Vector {
	n, m := rc.N(), rc.M()
	ForCells(rc.Exec(), cl.Clusters, m, func(j int) xrand.Stream { return shared.SplitValue(uint64(j)) },
		func(maxMembers int) *wsScratch {
			return &wsScratch{
				chosen:  make([]int, red),
				written: make([]uint64, maxMembers),
				touched: make([]int, 0, maxMembers),
			}
		},
		func(sc *wsScratch, clRng *xrand.Stream, j, wb, base, hi int) {
			members := cl.Clusters[j]
			var weights []int
			if cum != nil {
				weights = cum[j]
			}
			for o := base; o < hi; o++ {
				rng := clRng.SplitValue(uint64(o))
				chosen := sc.chosen[:red]
				for i := range chosen {
					if weights == nil {
						chosen[i] = rng.Intn(len(members))
					} else {
						chosen[i] = weightedPick(&rng, weights)
					}
				}
				bit := uint64(1) << uint(o-base)
				for _, mi := range dedupInPlace(chosen) {
					if sc.written[mi] == 0 {
						sc.touched = append(sc.touched, mi)
					}
					sc.written[mi] |= bit
				}
			}
			for _, mi := range sc.touched {
				q := members[mi]
				wmask := sc.written[mi]
				bd.WriteWord(q, wb, wmask, rc.ReportWord(q, wb, wmask))
				sc.written[mi] = 0
			}
			sc.touched = sc.touched[:0]
		})

	// Barrier: seal the board. The tally below reads the immutable view
	// without locks, one majority word per (cluster, word-block) cell;
	// distinct cells write distinct words of distinct vectors. Only lanes
	// with a written bit at an object vote there, and within a fresh
	// per-iteration board those are exactly the object's dedup'd probers.
	frozen := bd.Freeze()
	majs := make([]bitvec.Vector, len(cl.Clusters))
	for j := range majs {
		majs[j] = bitvec.New(m)
	}
	words := (m + 63) / 64
	rc.Exec().For(len(majs)*words, func(cell int) {
		j, wb := cell/words, cell%words
		majs[j].SetWord(wb, frozen.MajorityWord(wb, cl.Clusters[j]))
	})
	return Broadcast(n, bitvec.New(m), cl.Clusters, majs)
}

// wsScratch is one worker's reusable buffers for the workshare publish
// loop: the per-object prober choices, each touched member's accumulated
// 64-object assignment mask, and the list of touched member indices.
type wsScratch struct {
	chosen  []int    // red prober choices (member indices) for one object
	written []uint64 // written[mi] = member mi's assignment mask, this block
	touched []int    // member indices with written != 0, in first-touch order
}

// weightedPick returns the index i drawn with probability proportional to
// its weight, from the cumulative weight table cum (cum[i] is the sum of
// the first i+1 weights): the first i with cum[i] > x for a uniform x.
func weightedPick(rng *xrand.Stream, cum []int) int {
	i, _ := slices.BinarySearch(cum, rng.Intn(cum[len(cum)-1])+1)
	return i
}

// RSelectEach runs RSelect per honest player over its candidates (Figure 2
// step 2) on SelectEach, with each player's coins split from shared by
// player id. It is the final selection of every binary protocol: core,
// its Byzantine wrapper, the capacity variant and the AASP baseline.
func RSelectEach(w *world.World, exec *par.Runner, shared *xrand.Stream, cands [][]bitvec.Vector, pr Params) []bitvec.Vector {
	allObjs := identity(w.M())
	return SelectEach(exec, w, bitvec.New(w.M()), cands, func(p int, col []bitvec.Vector) int {
		return selection.RSelect(w, p, allObjs, col, shared.Split(0xFE11, uint64(p)), pr.Sel)
	})
}

// RunByzantine executes the full §7 protocol: ByzIterations repetitions,
// each electing a leader with Feige's protocol and running the complete
// doubling loop with the leader's coins, followed by a final RSelect over
// the per-repetition outputs. When a dishonest leader is elected, the
// shared coins of that repetition are adversarial; we model the worst case
// by letting the adversary replace the repetition's candidate vectors with
// the complement of each player's truth — strictly worse than anything a
// biased seed could produce (see DESIGN.md §3).
//
// The election/repetition/selection skeleton is the generic wrapper
// (RunByzantineOver); this function is its binary instantiation — bitvec
// vectors, truth-complement worst case, Hamming-distance RSelect. The
// repetitions are mutually independent — each gets its own split RNG
// streams, its own execution context (world.Run), and its own bulletin
// boards — so they execute concurrently across cores unless pr.ByzSerial
// is set; within each repetition the protocol phases fan out over players
// and objects on the run's executor unless pr.PhaseSerial is set (the two
// layers compose; DESIGN.md §9). Per-repetition statistics are merged in
// repetition order, so the output and every counter are byte-identical to
// the serial schedule for a fixed seed (stateful call-order-dependent
// behaviors like adversary.Flipflopper being the one documented exception;
// see DESIGN.md §6).
//
// binStrategy drives dishonest players' election behavior (nil: greedy
// lightest-bin rushing).
func RunByzantine(w *world.World, trueRng *xrand.Stream, binStrategy election.BinStrategy, pr Params) *Result {
	n := w.N()
	return RunByzantineOver(w, trueRng, ByzProtocol[bitvec.Vector]{
		Repetitions: pr.ByzIterations,
		Serial:      pr.ByzSerial,
		Strategy:    binStrategy,
		Election:    pr.Election,
		// Honest leader: shared coins are unbiased. The repetition runs in
		// its own execution context, leaving w itself read-only.
		RunRep: func(shared *xrand.Stream) *Result { return Run(w, shared, pr) },
		Adversarial: func(int) []bitvec.Vector {
			// Dishonest leader: adversarial coins. Worst-case model — the
			// repetition's output is maximally wrong for every player.
			advOut := make([]bitvec.Vector, n)
			for p := 0; p < n; p++ {
				advOut[p] = w.TruthVector(p).Not()
			}
			return advOut
		},
		SelectFinal: func(rng *xrand.Stream, outputs [][]bitvec.Vector) []bitvec.Vector {
			// If every leader was dishonest (probability vanishing in k at
			// the tolerated corruption level) all candidates are adversarial
			// and the final selection cannot help; HonestLeaders exposes
			// this to experiments.
			return RSelectEach(w, phaseExec(pr), rng, outputs, pr)
		},
	})
}

// identity returns [0, 1, …, m-1].
func identity(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

// dedupInPlace compacts xs to its distinct values, preserving first-seen
// order, and returns the compacted prefix of xs — no allocation. The
// quadratic scan beats any map for the workshare's Redundancy-sized
// slices (≈ 1.5·ln n elements), which is the only place this runs.
func dedupInPlace(xs []int) []int {
	k := 0
	for _, x := range xs {
		dup := false
		for j := 0; j < k; j++ {
			if xs[j] == x {
				dup = true
				break
			}
		}
		if !dup {
			xs[k] = x
			k++
		}
	}
	return xs[:k]
}
