// Package core implements CalculatePreferences (Figure 2), the paper's main
// contribution: a B-budget collaborative scoring protocol that is
// asymptotically optimal with respect to budget B and tolerates up to
// n/(3B) dishonest players (Theorem 14).
//
// The protocol guesses the correlation diameter D by doubling, and for each
// guess: draws a shared random sample set S of ~10·ln(n)/D of the objects,
// runs SmallRadius on S to estimate every player's preferences there,
// connects players whose sample estimates are close into a neighbor graph,
// peels clusters of size ≥ n/B, and shares the probing of all n objects
// within each cluster with Θ(log n)-fold redundancy and majority voting.
// A final RSelect picks the best diameter guess per player. The Byzantine
// wrapper (§7.1) repeats everything under Θ(log n) elected leaders and
// RSelects again, so at least one repetition used unbiased shared coins whp.
package core

import (
	"math"

	"collabscore/internal/cluster"
	"collabscore/internal/election"
	"collabscore/internal/selection"
	"collabscore/internal/smallradius"
	"collabscore/internal/xrand"
)

// Params carries every constant of CalculatePreferences. Paper returns the
// literal constants from the paper; Scaled returns simulation-friendly ones
// (the paper's polylog constants exceed n itself at laptop scale — see
// DESIGN.md §4 — so Scaled shrinks the multipliers while preserving every
// structural relationship between the constants).
type Params struct {
	// B is the budget parameter: the protocol targets the error achievable
	// by clusters of size ≥ n/B, using O(B·polylog n) probes per player.
	B int

	// SampleFactor f sets the sample inclusion probability f·ln(n)/D
	// (paper: 10, Lemma 6).
	SampleFactor float64
	// SampleDiamFactor g sets the diameter bound g·ln(n) passed to
	// SmallRadius on the sample set (paper: 20, Lemma 7). Structurally this
	// must be ≥ 2·SampleFactor so that close pairs stay under it whp.
	SampleDiamFactor float64
	// EdgeFactor e sets the neighbor-graph edge threshold e·ln(n)
	// (paper: 220, Lemma 8). Structurally it must exceed the close-pair
	// sample distance plus twice SmallRadius's error on the sample.
	EdgeFactor float64
	// RedundancyFactor r sets the number of probers assigned per object in
	// the work-sharing phase: ⌈r·ln n⌉ (paper: Θ(log n), Lemma 10). It must
	// be large enough for Chernoff majorities and, in the Byzantine case,
	// to out-vote the ≤1/3 dishonest cluster members (Lemma 13).
	RedundancyFactor float64

	// MinD and MaxD restrict the diameter-doubling loop to guesses
	// MinD ≤ D ≤ MaxD. Zero values mean the full paper range 1..n.
	// Experiments that know the planted diameter use this to isolate one
	// iteration.
	MinD, MaxD int

	// SmallDThreshold: guesses D < SmallDThreshold·ln(n) skip the sampling
	// machinery and run SmallRadius on the full object set (§6.1's easy
	// case; paper: 1).
	SmallDThreshold float64

	// ByzIterations is the number of leader-election + full-protocol
	// repetitions in the Byzantine wrapper (paper: Θ(log n)).
	ByzIterations int
	// ByzSerial forces the Byzantine repetitions to execute one after
	// another instead of concurrently. The repetitions are independent and
	// merged deterministically, so this only trades wall-clock time for a
	// single-threaded schedule (reference runs, benchmarks, debugging).
	ByzSerial bool
	// PhaseSerial forces the intra-repetition protocol phases (the
	// per-player, per-pair and per-object loops of SmallRadius, ZeroRadius,
	// graph building and work sharing) onto the single-threaded reference
	// schedule. Phase loops fan out on pre-split RNG streams with
	// index-ordered merges, so fixed-seed output is byte-identical between
	// the serial and parallel phase schedules (DESIGN.md §9;
	// TestPhaseParallelMatchesSerial pins it). Set both ByzSerial and
	// PhaseSerial for a fully single-threaded run.
	PhaseSerial bool
	// PhaseWorkers, when positive and PhaseSerial is unset, pins the phase
	// loops to exactly that many worker goroutines (par.Fixed) instead of
	// the GOMAXPROCS default. Race and property tests use it to force real
	// goroutine interleavings on single-core hosts; output is byte-identical
	// to every other schedule (DESIGN.md §9).
	PhaseWorkers int

	// PeelSerial has no effect: the clustering step always runs the greedy
	// peel (cluster.Build).
	//
	// Deprecated: PeelSerial stays only so the benchmark replay
	// (bench/replay.go) compiles, and is removed together with that replay.
	PeelSerial bool

	// NeighborIndex selects the neighbor-discovery implementation of the
	// clustering step (1.d): the zero value is the exact all-pairs sweep —
	// the reference oracle, byte-identical to the pre-seam behavior — and
	// Kind "lsh" switches to the banding index (cluster.LSH), which misses
	// a vanishing fraction of edges but never invents one. Like ByzSerial
	// and PhaseSerial this is a pure execution knob at the parameter layer;
	// unlike them it may change output when non-default, which is why the
	// sweep grid treats it as a paired-comparison axis (same seeds, same
	// worlds, different index). Deterministic for a fixed seed and
	// schedule-independent either way (DESIGN.md §13).
	NeighborIndex cluster.IndexSpec

	SR       smallradius.Params
	Sel      selection.Params
	Election election.Params
}

// Paper returns the constants exactly as stated in the paper.
func Paper(n, b int) Params {
	return Params{
		B:                b,
		SampleFactor:     10,
		SampleDiamFactor: 20,
		EdgeFactor:       220,
		RedundancyFactor: 3,
		SmallDThreshold:  1,
		ByzIterations:    int(math.Ceil(math.Log2(float64(n) + 2))),
		SR:               smallradius.Paper(n),
		Sel:              selection.Defaults(),
		Election:         election.Defaults(),
	}
}

// Scaled returns simulation-scale constants preserving the structural
// relationships: sample diameter = 2·sample factor, edge threshold =
// 2·(sample diameter) (close-pair distance plus SmallRadius slack), and
// modest redundancy.
func Scaled(n, b int) Params {
	p := Paper(n, b)
	p.SampleFactor = 1     // |S| = n·ln n/D; close pairs ≈ ln n apart on S
	p.SampleDiamFactor = 2 // ≈2× the expected close-pair sample distance
	p.EdgeFactor = 4       // ≥ close-pair distance + SmallRadius slack, ≪ cross-cluster distance
	p.RedundancyFactor = 1.5
	p.SmallDThreshold = 3 // below 3·ln n the sample would be most of the objects anyway
	p.ByzIterations = 5
	p.SR = smallradius.Scaled(n)
	p.Sel = selection.Scaled()
	return p
}

// LnN returns ln(n) guarded away from zero for tiny n: the one ln n that
// every protocol variant (core, budgets, ratings) scales its constants by.
func LnN(n int) float64 {
	v := math.Log(float64(n))
	if v < 1 {
		v = 1
	}
	return v
}

// Guesses returns the diameter-doubling ladder every protocol variant runs:
// the powers of two up to top that lie in [minD, maxD], where a
// non-positive minD means 1 and a non-positive maxD means top. A range
// holding no power of two runs its lower end alone, so a fixed off-ladder
// diameter (MinD = MaxD = 24) runs exactly that guess.
func Guesses(minD, maxD, top int) []int {
	lo, hi := minD, maxD
	if lo <= 0 {
		lo = 1
	}
	if hi <= 0 {
		hi = top
	}
	var out []int
	for d := 1; d <= top; d *= 2 {
		if d >= lo && d <= hi {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		out = []int{lo}
	}
	return out
}

// DrawSample draws one guess's shared sample set: each of the m objects
// independently with probability rate (capped at 1), and object 0 alone if
// the draw comes out empty, so later phases always have a sample to work on.
func DrawSample(rng *xrand.Stream, m int, rate float64) []int {
	s := rng.BernoulliSubset(m, min(rate, 1))
	if len(s) == 0 {
		s = []int{0}
	}
	return s
}

// SampleProb returns the per-object sample inclusion probability for
// diameter guess d.
func (pr Params) SampleProb(n, d int) float64 {
	p := pr.SampleFactor * LnN(n) / float64(d)
	if p > 1 {
		p = 1
	}
	return p
}

// SampleDiameter returns the diameter bound used on the sample set.
func (pr Params) SampleDiameter(n int) int {
	return int(math.Ceil(pr.SampleDiamFactor * LnN(n)))
}

// EdgeThreshold returns the neighbor-graph distance threshold.
func (pr Params) EdgeThreshold(n int) int {
	return int(math.Ceil(pr.EdgeFactor * LnN(n)))
}

// Redundancy returns the number of probers assigned per (cluster, object).
func (pr Params) Redundancy(n int) int {
	r := int(math.Ceil(pr.RedundancyFactor * LnN(n)))
	if r < 3 {
		r = 3
	}
	return r
}

// MinClusterSize returns the cluster size threshold used when peeling the
// neighbor graph. The promised cluster around each player has n/B members,
// but up to n/(3B) of them may be dishonest and refuse to look similar on
// the sample (§7.2), so the visible threshold is n/B − n/(3B) = 2n/(3B).
// Cluster diameter guarantees come from the edge threshold, not the size,
// and the workshare majority stays ≥2/3 honest exactly as Lemma 13 needs.
func (pr Params) MinClusterSize(n int) int {
	s := n/pr.B - n/(3*pr.B)
	if s < 1 {
		s = 1
	}
	return s
}

// DiameterGuesses returns the list of diameter guesses the doubling loop
// will try, honoring MinD/MaxD (Guesses over 1..n).
func (pr Params) DiameterGuesses(n int) []int { return Guesses(pr.MinD, pr.MaxD, n) }

// MaxDishonest returns the paper's dishonesty tolerance n/(3B) (§7.2).
func (pr Params) MaxDishonest(n int) int { return n / (3 * pr.B) }

// SeparableDiameter returns the largest planted diameter the sampling
// phase can separate at these constants, for clusters whose centers are
// random (≈ m/2 apart). A far pair at true distance m/2 − D lands at
// ≈ SampleFactor·ln(n)/D · (m/2 − D) on the sample, which must clear the
// EdgeFactor·ln(n) threshold:
//
//	m > 2·D·(EdgeFactor/SampleFactor + 1).
//
// The paper's version of this constraint is Lemma 8's requirement that
// non-neighbors be ≥ 84·D apart; beyond SeparableDiameter the clustering
// merges and the O(D) guarantee does not apply (experiment E8 shows the
// breakdown row). Callers sweeping planted diameters should stay below
// this bound with some margin.
func (pr Params) SeparableDiameter(m int) int {
	ratio := pr.EdgeFactor / pr.SampleFactor
	d := int(float64(m) / (2 * (ratio + 1)))
	if d < 1 {
		d = 1
	}
	return d
}
