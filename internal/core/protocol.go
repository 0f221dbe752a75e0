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
			return BoardShare(BinaryDomain(rc), cl, s, is, pr.Redundancy(n), nil)
		},
	}
}

// Domain is what a protocol family publishes and tallies in the board
// share: Exec runs the share's phases, N players report on M objects, and
// each value is K bit-planes wide (1 for the binary protocols). Report
// writes player p's reports for the objects of mask in object word wi into
// dst, one word per plane (honest players probe). Cand turns a cluster's
// median planes, or zero planes for players in no cluster, into a candidate.
type Domain[T any] struct {
	Exec    *par.Runner
	N, M, K int
	Report  func(p, wi int, mask uint64, dst []uint64)
	Cand    func(median bitvec.Planes) T
}

// BinaryDomain is the binary protocols' domain over rc: one plane, reports
// through Run.ReportWord, and a cluster's median plane as its candidate.
func BinaryDomain(rc *world.Run) Domain[bitvec.Vector] {
	return Domain[bitvec.Vector]{
		Exec: rc.Exec(), N: rc.N(), M: rc.M(), K: 1,
		Report: func(p, wi int, mask uint64, dst []uint64) { dst[0] = rc.ReportWord(p, wi, mask) },
		Cand:   func(median bitvec.Planes) bitvec.Vector { return median.Plane(0) },
	}
}

// BoardShare is every protocol family's work-sharing step, on a fresh
// board of dom.K planes: workShare on coins s.Split(0x5C), recording the
// board traffic on is. cum[j], when cum is non-nil, holds cluster j's
// cumulative member weights, and probers are drawn in proportion to them;
// nil draws them uniformly.
func BoardShare[T any](dom Domain[T], cl *cluster.Clustering, s *xrand.Stream, is *IterationStats, red int, cum [][]int) []T {
	bd := board.NewPlanes(dom.N, dom.M, dom.K)
	out := workShare(dom, bd, cl, s.Split(0x5C), red, cum)
	is.BoardWrites = bd.WriteCount()
	is.BoardReads = bd.ReadCount()
	bd.Release()
	return out
}

// workShare assigns, for every cluster and every object, red randomly
// chosen cluster members to probe the object — uniformly, or in proportion
// to the cumulative weights cum[j] when cum is non-nil; the probers publish
// their reports on the bulletin board, and each member of the cluster
// adopts the median of the published values (Figure 2 step 1.e; for binary
// values the median is the majority). Players in no cluster receive the
// zero candidate, which the final selection discards.
//
// It runs as two fan-out phases over (cluster, word-block) cells — 64
// objects per cell — separated by the board's Freeze barrier (DESIGN.md §7,
// §10). The publish phase draws each object's probers with coins split per
// (cluster, object) from stack-value streams and ORs each pick into its
// prober's 64-object assignment mask in a per-worker scratch arena (so a
// member picked twice for one object is assigned it once), then flushes
// one report (bulk probes for honest probers) and one board write per
// (prober, block). The tally phase computes each cluster's medians a word
// at a time (Frozen.MedianWords), and every member shares the cluster's
// one immutable candidate. Picks, published values (first-write-wins) and
// medians are pure functions of the split streams, and a cell leaves its
// scratch as it found it, so the output is identical under any schedule.
func workShare[T any](dom Domain[T], bd *board.Board, cl *cluster.Clustering, shared *xrand.Stream, red int, cum [][]int) []T {
	m, k := dom.M, dom.K
	maxMembers := 0
	streams := make([]xrand.Stream, len(cl.Clusters))
	for j, members := range cl.Clusters {
		maxMembers = max(maxMembers, len(members))
		streams[j] = shared.SplitValue(uint64(j))
	}
	words := (m + 63) / 64
	cells := len(cl.Clusters) * words
	scratches := make([]wsScratch, dom.Exec.Workers(cells))
	for i := range scratches {
		scratches[i] = wsScratch{
			written: make([]uint64, maxMembers),
			touched: make([]int, 0, maxMembers),
			vals:    make([]uint64, k),
		}
	}
	dom.Exec.ForWorker(cells, func(wk, cell int) {
		sc := &scratches[wk]
		j, wb := cell/words, cell%words
		base, hi := wb*64, min(wb*64+64, m)
		members := cl.Clusters[j]
		var weights []int
		if cum != nil {
			weights = cum[j]
		}
		for o := base; o < hi; o++ {
			rng := streams[j].SplitValue(uint64(o))
			bit := uint64(1) << uint(o-base)
			for range red {
				var mi int
				if weights == nil {
					mi = rng.Intn(len(members))
				} else {
					mi = weightedPick(&rng, weights)
				}
				if sc.written[mi] == 0 {
					sc.touched = append(sc.touched, mi)
				}
				sc.written[mi] |= bit
			}
		}
		for _, mi := range sc.touched {
			q := members[mi]
			dom.Report(q, wb, sc.written[mi], sc.vals)
			bd.WritePlanes(q, wb, sc.written[mi], sc.vals)
			sc.written[mi] = 0
		}
		sc.touched = sc.touched[:0]
	})

	// Barrier: seal the board. The tally reads the immutable view without
	// locks, k median words per cell into distinct words. Only lanes with a
	// written bit at an object vote there: that object's probers.
	frozen := bd.Freeze()
	meds := make([]bitvec.Planes, len(cl.Clusters))
	for j := range meds {
		meds[j] = bitvec.NewPlanes(m, k)
	}
	dom.Exec.For(cells, func(cell int) {
		j, wb := cell/words, cell%words
		var med [bitvec.MaxPlaneBits]uint64
		frozen.MedianWords(wb, cl.Clusters[j], med[:k])
		for l, x := range med[:k] {
			meds[j].SetPlaneWord(l, wb, x)
		}
	})
	out := make([]T, dom.N)
	zero := dom.Cand(bitvec.NewPlanes(m, k))
	for p := range out {
		out[p] = zero
	}
	for j, members := range cl.Clusters {
		c := dom.Cand(meds[j])
		for _, p := range members {
			out[p] = c
		}
	}
	return out
}

// wsScratch is one worker's reusable buffers for the workshare publish
// loop: each touched member's accumulated 64-object assignment mask, the
// list of touched member indices, and one report's plane words.
type wsScratch struct {
	written []uint64 // written[mi] = member mi's assignment mask, this block
	touched []int    // member indices with written != 0, in first-touch order
	vals    []uint64 // one report's k plane words
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
