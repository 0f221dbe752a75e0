package core

import (
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

// Result is the output of one protocol run.
type Result struct {
	// Output[p] is the predicted preference vector for player p (length m).
	// Entries for dishonest players are meaningless.
	Output []bitvec.Vector
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
	res := &Result{}
	rc := world.NewRunOn(w, phaseExec(pr))
	candidates := runDoublingLoop(rc, shared, pr, res)
	res.Output = finalSelect(w, rc.Exec(), shared, candidates, pr)
	return res
}

// runDoublingLoop executes the diameter-doubling loop of Figure 2 and
// returns the candidate table: candidates[gi][p] is player p's vector from
// diameter guess gi.
func runDoublingLoop(rc *world.Run, shared *xrand.Stream, pr Params, res *Result) [][]bitvec.Vector {
	allObjs := identity(rc.M())
	var candidates [][]bitvec.Vector
	for gi, d := range pr.DiameterGuesses(rc.N()) {
		cand, stats := runIteration(rc, allObjs, d, shared.Split(uint64(gi), uint64(d)), pr)
		res.Iterations = append(res.Iterations, stats)
		res.BoardWrites += stats.BoardWrites
		res.BoardReads += stats.BoardReads
		candidates = append(candidates, cand)
	}
	return candidates
}

// runIteration executes one diameter guess: sample, SmallRadius, cluster,
// work-share (Figure 2 steps 1.b–1.e). It returns one candidate vector per
// player over all m objects.
func runIteration(rc *world.Run, allObjs []int, d int, shared *xrand.Stream, pr Params) ([]bitvec.Vector, IterationStats) {
	n, m := rc.N(), rc.M()
	stats := IterationStats{D: d}
	rc.Pub.TargetDiameter = d

	// Easy case (§6.1): small diameter guesses run SmallRadius directly on
	// the full object set.
	if float64(d) < pr.SmallDThreshold*LnN(n) {
		stats.UsedFullSR = true
		rc.Pub.Phase = "smallradius-full"
		return smallradius.Run(rc, allObjs, d, pr.B, shared.Split(0xF0), pr.SR), stats
	}

	// Step 1.b: shared random sample set S.
	rc.Pub.Phase = "sample"
	sample := DrawSample(shared.Split(0x5A), m, pr.SampleProb(n, d))
	rc.Pub.SetSample(sample)
	stats.SampleSize = len(sample)

	// Step 1.c: SmallRadius on the sample.
	rc.Pub.Phase = "smallradius"
	z := smallradius.Run(rc, sample, pr.SampleDiameter(n), pr.B, shared.Split(0x5B), pr.SR)

	// Step 1.d: neighbor graph and clusters, through the NeighborIndex spec
	// (exact block sweep by default, LSH banding when the knob is set; the
	// index stream is split from the shared coins, a pure read of their
	// state).
	g := pr.NeighborIndex.BuildGraph(rc.Exec(), z, pr.EdgeThreshold(n), shared.Split(0x5D))
	cl := cluster.Build(g, pr.MinClusterSize(n))
	rc.Pub.Clusters = cl.Clusters
	stats.NumClusters = len(cl.Clusters)
	stats.MinCluster = cl.MinClusterSize()
	stats.Unassigned = len(cl.Unassigned())

	// Step 1.e: share the probing work within each cluster. Reports travel
	// through the bulletin board: probers publish to their own lanes and
	// every cluster member tallies the published votes.
	rc.Pub.Phase = "workshare"
	bd := board.New(n, m)
	out := workShare(rc, bd, cl, shared.Split(0x5C), pr)
	stats.BoardWrites = bd.WriteCount()
	stats.BoardReads = bd.ReadCount()
	rc.Pub.SetSample(nil)
	rc.Pub.Clusters = nil
	return out, stats
}

// workShare assigns, for every cluster and every object, Redundancy
// randomly chosen cluster members to probe the object; the probers publish
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
func workShare(rc *world.Run, bd *board.Board, cl *cluster.Clustering, shared *xrand.Stream, pr Params) []bitvec.Vector {
	n, m := rc.N(), rc.M()
	red := pr.Redundancy(n)
	exec := rc.Exec()
	out := make([]bitvec.Vector, n)
	zero := bitvec.New(m)
	for p := range out {
		out[p] = zero // shared default for unassigned players (never mutated)
	}
	numCl := len(cl.Clusters)
	if numCl == 0 || m == 0 {
		return out
	}
	maxMembers := 0
	for _, members := range cl.Clusters {
		if len(members) > maxMembers {
			maxMembers = len(members)
		}
	}
	clusterStreams := make([]xrand.Stream, numCl)
	for j := range clusterStreams {
		clusterStreams[j] = shared.SplitValue(uint64(j))
	}

	// Publish phase, parallel over every (cluster, word-block) cell.
	words := (m + 63) / 64
	cells := numCl * words
	scratches := make([]wsScratch, exec.Workers(cells))
	for i := range scratches {
		scratches[i].init(red, maxMembers)
	}
	exec.ForWorker(cells, func(wk, cell int) {
		sc := &scratches[wk]
		j, wb := cell/words, cell%words
		members := cl.Clusters[j]
		base := wb * 64
		hi := base + 64
		if hi > m {
			hi = m
		}
		for o := base; o < hi; o++ {
			rng := clusterStreams[j].SplitValue(uint64(o))
			chosen := sc.chosen[:red]
			for i := range chosen {
				chosen[i] = rng.Intn(len(members))
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
	majs := make([]bitvec.Vector, numCl)
	for j := range majs {
		majs[j] = bitvec.New(m)
	}
	exec.For(cells, func(cell int) {
		j, wb := cell/words, cell%words
		majs[j].SetWord(wb, frozen.MajorityWord(wb, cl.Clusters[j]))
	})
	for j, members := range cl.Clusters {
		for _, p := range members {
			out[p] = majs[j]
		}
	}
	return out
}

// wsScratch is one worker's reusable buffers for the workshare publish
// loop: the per-object prober choices, each touched member's accumulated
// 64-object assignment mask, and the list of touched member indices. A
// worker resets its arena at the end of every cell, so no state crosses
// cells and results stay schedule-independent (par.Runner.ForWorker).
type wsScratch struct {
	chosen  []int    // red prober choices (member indices) for one object
	written []uint64 // written[mi] = member mi's assignment mask, this block
	touched []int    // member indices with written != 0, in first-touch order
}

func (sc *wsScratch) init(red, maxMembers int) {
	sc.chosen = make([]int, red)
	sc.written = make([]uint64, maxMembers)
	sc.touched = make([]int, 0, maxMembers)
}

// finalSelect runs RSelect per honest player over its candidate vectors
// (Figure 2 step 2), fanning out over players on the given executor.
// candidates is indexed [candidate][player]; each player gathers its own
// column. Each player's selection coins are split from the shared stream
// by player id, so the outcome is schedule-independent.
func finalSelect(w *world.World, exec *par.Runner, shared *xrand.Stream, candidates [][]bitvec.Vector, pr Params) []bitvec.Vector {
	n, m := w.N(), w.M()
	allObjs := identity(m)
	out := make([]bitvec.Vector, n)
	exec.For(n, func(p int) {
		if !w.IsHonest(p) || len(candidates) == 0 {
			out[p] = bitvec.New(m)
			return
		}
		cands := make([]bitvec.Vector, len(candidates))
		for ci := range candidates {
			cands[ci] = candidates[ci][p]
		}
		rng := shared.Split(0xFE11, uint64(p))
		idx := selection.RSelect(w, p, allObjs, cands, rng, pr.Sel)
		out[p] = cands[idx]
	})
	return out
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
	res := &Result{}
	k := pr.ByzIterations
	if k < 1 {
		k = 1
	}
	res.Repetitions = k

	output, reps := RunByzantineOver(w, trueRng, ByzProtocol[bitvec.Vector]{
		Repetitions: k,
		Serial:      pr.ByzSerial,
		Strategy:    binStrategy,
		Election:    pr.Election,
		RunRep: func(it int, shared *xrand.Stream, st *RepetitionStats) []bitvec.Vector {
			// Honest leader: shared coins are unbiased. The repetition runs
			// in its own execution context, leaving w itself read-only.
			rc := world.NewRunOn(w, phaseExec(pr))
			sub := &Result{}
			cands := runDoublingLoop(rc, shared, pr, sub)
			out := finalSelect(w, rc.Exec(), shared, cands, pr)
			st.Iterations = sub.Iterations
			st.BoardWrites = sub.BoardWrites
			st.BoardReads = sub.BoardReads
			return out
		},
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
			// and the final selection cannot help; res.HonestLeaders exposes
			// this to experiments.
			return finalSelect(w, phaseExec(pr), rng, outputs, pr)
		},
	})
	res.Output = output
	res.Reps = reps

	// Deterministic merge in repetition order, independent of the schedule.
	for it := 0; it < k; it++ {
		st := &res.Reps[it]
		if st.HonestLeader {
			res.HonestLeaders++
			res.Iterations = st.Iterations
		}
		res.BoardWrites += st.BoardWrites
		res.BoardReads += st.BoardReads
	}
	return res
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
