package main

// The traced replay: the protocol runners of internal/core and the rating
// wrapper of internal/multival, re-driven from outside by calling each
// layer's exported functions in protocol order with the protocols' own
// stream tags and published state, so that every layer call gets a span.
// It holds only the glue the runners have between those calls, and its
// output is checked byte for byte against the real runner on the same
// stream (TestReplayMatchesCore, and every traced benchmark run), so it
// cannot drift silently from the code it times.

import (
	"math"

	"collabscore/internal/bitvec"
	"collabscore/internal/board"
	"collabscore/internal/cluster"
	"collabscore/internal/core"
	"collabscore/internal/election"
	"collabscore/internal/multival"
	"collabscore/internal/par"
	"collabscore/internal/selection"
	"collabscore/internal/smallradius"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Stream layout of the public runners (collabscore.Simulation and
// RatingSimulation draw every run from xrand.New(Config.Seed)) and of the
// Byzantine wrapper core.RunByzantineOver.
const (
	tagRun       = 10      // Simulation.Run: rng.Split(10)
	tagByzantine = 11      // RunByzantine: rng.Split(11)
	tagElect     = 0xE1EC  // repetition it elects on Split(tagElect, it)
	tagRep       = 0x5EED  // and runs the protocol on Split(tagRep, it)
	tagFinal     = 0xF17A1 // the cross-repetition selection stream
	ratingReps   = 5       // RatingSimulation.RunByzantine(0) repetitions
)

// electLeader runs repetition it's leader election of a Byzantine run on
// trueRng and reports whether the leader is honest.
func electLeader(w election.Roster, trueRng *xrand.Stream, it int, pr election.Params) bool {
	el := election.Run(w, trueRng.Split(tagElect, uint64(it)), nil, pr)
	return w.IsHonest(el.Leader)
}

// replayByzantine mirrors core.RunByzantine with its repetitions run one
// after another (the wrapper's serial schedule, byte-identical to the
// parallel one).
func replayByzantine(t *tracer, w *world.World, trueRng *xrand.Stream, pr core.Params) []bitvec.Vector {
	n := w.N()
	k := pr.ByzIterations
	if k < 1 {
		k = 1
	}
	outputs := make([][]bitvec.Vector, k)
	for it := 0; it < k; it++ {
		t.span("rep", func() {
			var honest bool
			el := t.span("election", func() { honest = electLeader(w, trueRng, it, pr.Election) })
			el.count("honest_leaders", b2i(honest))
			if !honest {
				t.span("adversary", func() {
					adv := make([]bitvec.Vector, n)
					for p := range adv {
						adv[p] = w.TruthVector(p).Not()
					}
					outputs[it] = adv
				})
				return
			}
			outputs[it] = replayRun(t, w, trueRng.Split(tagRep, uint64(it)), pr)
		})
	}
	candidates := make([][]bitvec.Vector, n)
	for p := range candidates {
		cands := make([]bitvec.Vector, k)
		for it := range cands {
			cands[it] = outputs[it][p]
		}
		candidates[p] = cands
	}
	return replayFinalSelect(t, w, par.Sched(pr.PhaseSerial, pr.PhaseWorkers), trueRng.Split(tagFinal), candidates, pr)
}

// replayRun mirrors core.Run: the diameter-doubling loop, then each
// player's RSelect over its candidates.
func replayRun(t *tracer, w *world.World, shared *xrand.Stream, pr core.Params) []bitvec.Vector {
	rc := world.NewRunOn(w, par.Sched(pr.PhaseSerial, pr.PhaseWorkers))
	n, m := rc.N(), rc.M()
	candidates := make([][]bitvec.Vector, n)
	allObjs := identity(m)
	for gi, d := range pr.DiameterGuesses(n) {
		cand := replayIteration(t, rc, allObjs, d, shared.Split(uint64(gi), uint64(d)), pr)
		for p := range candidates {
			candidates[p] = append(candidates[p], cand[p])
		}
	}
	return replayFinalSelect(t, w, rc.Exec(), shared, candidates, pr)
}

// replayIteration mirrors core.runIteration: sample, SmallRadius, neighbor
// graph, peel, workshare.
func replayIteration(t *tracer, rc *world.Run, allObjs []int, d int, shared *xrand.Stream, pr core.Params) []bitvec.Vector {
	n, m := rc.N(), rc.M()
	rc.Pub.TargetDiameter = d
	z := make([]bitvec.Vector, n)

	if float64(d) < pr.SmallDThreshold*lnN(n) {
		rc.Pub.Phase = "smallradius-full"
		t.span("smallradius", func() {
			zMap := smallradius.Run(rc, allObjs, d, pr.B, shared.Split(0xF0), pr.SR)
			for p := range z {
				z[p] = zMap[p]
			}
		})
		return z
	}

	rc.Pub.Phase = "sample"
	var sample []int
	t.span("sample", func() {
		sample = shared.Split(0x5A).BernoulliSubset(m, pr.SampleProb(n, d))
		if len(sample) == 0 {
			sample = []int{0}
		}
		rc.Pub.SetSample(sample)
	})

	rc.Pub.Phase = "smallradius"
	t.span("smallradius", func() {
		zMap := smallradius.Run(rc, sample, pr.SampleDiameter(n), pr.B, shared.Split(0x5B), pr.SR)
		for p := range z {
			z[p] = zMap[p]
		}
	})

	var g cluster.Graph
	graph := t.span("cluster.graph", func() {
		g = pr.NeighborIndex.BuildGraph(rc.Exec(), z, pr.EdgeThreshold(n), shared.Split(0x5D))
	})
	graph.count("edges", edges(g))
	var cl *cluster.Clustering
	peel := t.span("cluster.peel", func() {
		if pr.PeelSerial {
			cl = cluster.Build(g, pr.MinClusterSize(n))
		} else {
			cl = cluster.BuildOn(rc.Exec(), g, pr.MinClusterSize(n))
		}
	})
	peel.count("clusters", int64(len(cl.Clusters)))
	peel.count("unassigned", int64(len(cl.Unassigned())))
	rc.Pub.Clusters = cl.Clusters

	rc.Pub.Phase = "workshare"
	out := replayWorkshare(t, rc, board.New(n, m), cl, shared.Split(0x5C), pr)
	rc.Pub.SetSample(nil)
	rc.Pub.Clusters = nil
	return out
}

// replayWorkshare mirrors core.workShare: the publish fan-out over
// (cluster, word-block) cells through Run.ReportWord and Board.WriteWord,
// the Freeze barrier, and the MajorityWord tally.
func replayWorkshare(t *tracer, rc *world.Run, bd *board.Board, cl *cluster.Clustering, shared *xrand.Stream, pr core.Params) []bitvec.Vector {
	n, m := rc.N(), rc.M()
	red := pr.Redundancy(n)
	exec := rc.Exec()
	out := make([]bitvec.Vector, n)
	zero := bitvec.New(m)
	for p := range out {
		out[p] = zero
	}
	numCl := len(cl.Clusters)
	if numCl == 0 || m == 0 {
		return out
	}
	maxMembers := 0
	for _, members := range cl.Clusters {
		maxMembers = max(maxMembers, len(members))
	}
	clusterStreams := make([]xrand.Stream, numCl)
	for j := range clusterStreams {
		clusterStreams[j] = shared.SplitValue(uint64(j))
	}
	words := (m + 63) / 64
	cells := numCl * words

	publish := t.span("workshare.publish", func() {
		scratches := make([]wsScratch, exec.Workers(cells))
		for i := range scratches {
			scratches[i] = wsScratch{chosen: make([]int, red), written: make([]uint64, maxMembers), touched: make([]int, 0, maxMembers)}
		}
		exec.ForWorker(cells, func(wk, cell int) {
			sc := &scratches[wk]
			j, wb := cell/words, cell%words
			members := cl.Clusters[j]
			base := wb * 64
			hi := min(base+64, m)
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
	})
	publish.BoardWrites = bd.WriteCount()

	majs := make([]bitvec.Vector, numCl)
	reads := bd.ReadCount()
	tally := t.span("workshare.tally", func() {
		frozen := bd.Freeze()
		for j := range majs {
			majs[j] = bitvec.New(m)
		}
		exec.For(cells, func(cell int) {
			j, wb := cell/words, cell%words
			majs[j].SetWord(wb, frozen.MajorityWord(wb, cl.Clusters[j]))
		})
	})
	tally.BoardReads = bd.ReadCount() - reads
	for j, members := range cl.Clusters {
		for _, p := range members {
			out[p] = majs[j]
		}
	}
	return out
}

// wsScratch is one worker's publish buffers, as in core.workShare.
type wsScratch struct {
	chosen  []int
	written []uint64
	touched []int
}

// replayFinalSelect mirrors core.finalSelect: RSelect per honest player over
// its candidates, on coins split from shared by player id.
func replayFinalSelect(t *tracer, w *world.World, exec *par.Runner, shared *xrand.Stream, candidates [][]bitvec.Vector, pr core.Params) []bitvec.Vector {
	n, m := w.N(), w.M()
	allObjs := identity(m)
	out := make([]bitvec.Vector, n)
	t.span("selection.rselect", func() {
		exec.For(n, func(p int) {
			cands := candidates[p]
			if !w.IsHonest(p) || len(cands) == 0 {
				out[p] = bitvec.New(m)
				return
			}
			idx := selection.RSelect(w, p, allObjs, cands, shared.Split(0xFE11, uint64(p)), pr.Sel)
			out[p] = cands[idx]
		})
	})
	return out
}

// replayRatings mirrors multival.RunByzantine with serial repetitions: each
// repetition's election, then multival.Run under an honest leader (the
// rating protocol's phases are not exported separately), then the
// per-player L1 spot check across repetitions.
func replayRatings(t *tracer, w *multival.World, trueRng *xrand.Stream, reps int, pr multival.Params) []bitvec.Planes {
	n, m := w.N(), w.M()
	outputs := make([][]bitvec.Planes, reps)
	for it := 0; it < reps; it++ {
		t.span("rep", func() {
			var honest bool
			el := t.span("election", func() { honest = electLeader(w, trueRng, it, election.Defaults()) })
			el.count("honest_leaders", b2i(honest))
			if !honest {
				t.span("adversary", func() {
					worst := make([]bitvec.Planes, n)
					for p := range worst {
						worst[p] = w.TruthMirror(p)
					}
					outputs[it] = worst
				})
				return
			}
			t.span("multival.rep", func() { outputs[it] = multival.Run(w, trueRng.Split(tagRep, uint64(it)), pr).Output })
		})
	}
	rng := trueRng.Split(tagFinal)
	checks := min(m, 8*int(lnN(n)))
	out := make([]bitvec.Planes, n)
	zero := bitvec.NewPlanes(m, w.Bits())
	t.span("selection.rselect", func() {
		par.Sched(pr.PhaseSerial, pr.PhaseWorkers).For(n, func(p int) {
			if !w.IsHonest(p) {
				out[p] = zero
				return
			}
			if reps == 1 {
				out[p] = outputs[0][p]
				return
			}
			check := rng.Split(uint64(p)).Sample(m, checks)
			best, bestScore := 0, math.MaxInt
			for it := 0; it < reps; it++ {
				cand := outputs[it][p]
				score := 0
				for _, o := range check {
					score += abs(cand.Get(o) - w.Probe(p, o))
				}
				if score < bestScore {
					best, bestScore = it, score
				}
			}
			out[p] = outputs[best][p]
		})
	})
	return out
}

// edges counts the undirected edges of g.
func edges(g cluster.Graph) int64 {
	var deg int64
	for p := 0; p < g.N(); p++ {
		deg += int64(g.Degree(p))
	}
	return deg / 2
}

// lnN is ln(n) guarded away from zero, as both protocol packages define it.
func lnN(n int) float64 { return max(math.Log(float64(n)), 1) }

func identity(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

// dedupInPlace compacts xs to its distinct values in first-seen order, as
// core.workShare does with each object's prober choices.
func dedupInPlace(xs []int) []int {
	k := 0
	for _, x := range xs {
		dup := false
		for _, y := range xs[:k] {
			if y == x {
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

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
