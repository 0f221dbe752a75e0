// Package multival implements the §8 extension of the paper: collaborative
// scoring with non-binary preferences. Players rate objects on a numeric
// scale 0..R instead of like/dislike, and similarity is measured with the
// L1 metric instead of Hamming distance.
//
// The paper conjectures that "the basic idea of using sampling to cluster
// players does not rely on these particular assumptions" (binary values,
// Hamming distance). This package realizes that claim with the natural
// generalization of CalculatePreferences:
//
//  1. draw a shared random sample set S of Θ(ln n · scale/D) of the objects;
//  2. every player probes S directly and publishes its ratings;
//  3. players whose published sample ratings are L1-close become neighbors,
//     and clusters of ≥ n/B − n/(3B) players are peeled greedily;
//     the neighbor graph is always the exact L1 sweep
//     (cluster.BuildGraphL1On) in the size rule's representation — the
//     LSH banding index hashes Hamming lanes, so there is no index knob;
//  4. the probing of all m objects is shared within each cluster with
//     Θ(log n)-fold redundancy on core's board share (core.BoardShare):
//     probers publish their ratings on a bulletin board of bit-planes,
//     and the cluster adopts each object's MEDIAN published rating — the
//     median of Θ(log n) reports from a ≥2/3-honest cluster is within the
//     honest rating spread even under adversarial manipulation (the rank
//     statistics version of the majority argument in Lemma 13; on one
//     plane the median is the binary protocols' majority).
//
// Probing the sample directly (instead of the binary SmallRadius recursion)
// costs |S| probes per player; the binary machinery's probe savings rely on
// exact-agreement vote counting, which does not transfer to dense rating
// scales. The cluster work-sharing savings — the dominant term — transfer
// unchanged.
//
// The protocol runs on core's doubling loop (core.Iterate): this package
// supplies only the rating steps — the publish on the sample, the L1 graph,
// the greedy peel and the rating domain of the board share — and the L1
// spot check that selects among guesses (core.SelectEach), and
// RunByzantine is core's generic §7 wrapper (core.RunByzantineOver), so
// ratings share core's stream layout, per-guess statistics
// (core.IterationStats, board traffic included) and result shape
// (Result = core.Outcome[bitvec.Planes]). Rating rows are bit-sliced into
// ⌈log₂(scale+1)⌉ bit-planes (bitvec.Planes) so L1 distances are
// word-level plane arithmetic, the probe memo is a lock-free CAS bitset
// with bulk whole-word charging, and phase loops fan out on par.Runner
// schedules gated by Params.PhaseSerial/PhaseWorkers with index-ordered
// merges, so fixed-seed outputs are identical under every schedule
// (DESIGN.md §12).
package multival

import (
	"fmt"
	"math"
	"math/bits"

	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/core"
	"collabscore/internal/metrics"
	"collabscore/internal/par"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Ratings is a plain integer rating row in [0, Scale] — the scalar
// reference representation. The engine itself computes on bit-sliced
// bitvec.Planes; Ratings remains the public-API materialization and the
// per-element reference the vectorized L1 is tested against.
type Ratings []int

// L1 returns the L1 distance Σ|a_i − b_i|. It panics on length mismatch.
func (a Ratings) L1(b Ratings) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("multival: length mismatch %d vs %d", len(a), len(b)))
	}
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}

// Clone returns a deep copy.
func (a Ratings) Clone() Ratings {
	out := make(Ratings, len(a))
	copy(out, a)
	return out
}

// Gather extracts the ratings at the given positions.
func (a Ratings) Gather(idx []int) Ratings {
	out := make(Ratings, len(idx))
	for j, i := range idx {
		out[j] = a[i]
	}
	return out
}

// Behavior decides what rating a player reports for an object.
// Implementations must be deterministic per (player, object) and safe for
// concurrent use: the vectorized engine may ask through bulk word-level
// paths, per-object paths, or concurrent phase goroutines, and all must
// agree (the determinism contract of internal/adversary, tested by this
// package's contract meta-test).
type Behavior interface {
	// Report returns the rating player p publishes for object o.
	Report(w *World, p, o int) int
}

// Honest probes and reports the true rating.
type Honest struct{}

// Report probes object o and returns the truth.
func (Honest) Report(w *World, p, o int) int { return w.Probe(p, o) }

// World is the rating-scale game substrate: hidden bit-sliced rating
// matrix, pluggable behaviors, and the binary world's probe accounting
// (world.Ledger, embedded: one CAS memo charging each (player, object)
// pair exactly once under any schedule, installed on a player's first
// probe so lazy rating worlds stay O(centers + edits) until probed). Truth
// rows are bitvec.Planes (⌈log₂(scale+1)⌉ bit-planes over the object set),
// and ProbePlaneWords is the bulk whole-word probe.
type World struct {
	world.Ledger
	scale int
	k     int // bit-planes per rating, PlaneBits(scale)
	// src is the pluggable truth representation (DESIGN.md §14), the only
	// way the world reads truth.
	src       RatingSource
	behaviors []Behavior
}

// NewWorld builds a rating world from a bit-sliced truth matrix with
// ratings in [0, scale]. Rows must have PlaneBits(scale) planes (as
// Generate produces).
func NewWorld(truth []bitvec.Planes, scale int) *World {
	return NewWorldFrom(NewDensePlanes(truth), scale)
}

// NewWorldFrom builds a rating world over any rating source — the
// materialized DensePlanes wrapper (NewWorld) or a lazy on-demand source.
func NewWorldFrom(src RatingSource, scale int) *World {
	if src.Players() == 0 {
		panic("multival: no players")
	}
	if scale < 1 {
		panic("multival: scale must be ≥ 1")
	}
	n, m := src.Players(), src.Objects()
	w := &World{
		Ledger:    world.NewLedger(n, m),
		scale:     scale,
		k:         bitvec.PlaneBits(scale),
		src:       src,
		behaviors: make([]Behavior, n),
	}
	w.checkPlanes()
	for p := range w.behaviors {
		w.behaviors[p] = Honest{}
	}
	return w
}

// checkPlanes panics unless the source's plane count matches the scale.
func (w *World) checkPlanes() {
	if w.src.Bits() != w.k {
		panic(fmt.Sprintf("multival: truth source has %d planes, want %d", w.src.Bits(), w.k))
	}
}

// Scale returns the rating scale; Bits the number of bit-planes per
// rating.
func (w *World) Scale() int { return w.scale }
func (w *World) Bits() int  { return w.k }

// Probe returns the true rating and charges a probe for the first visit.
// It is safe and lock-free under concurrent use: the memo's CAS ensures
// exactly one caller charges each (player, object) pair, so probe counters
// are schedule-independent.
func (w *World) Probe(p, o int) int {
	w.ChargeBit(p, o)
	return w.src.Rating(p, o)
}

// ProbePlaneWords probes, as player p, every object whose bit is set in
// mask within object word wi, and writes the true rating bits for exactly
// those objects into dst (one word per plane, aligned with mask; dst must
// have Bits() entries). Bits of mask past the last object are ignored.
// Charging is identical to per-object Probe calls on the mask's objects.
func (w *World) ProbePlaneWords(p, wi int, mask uint64, dst []uint64) {
	mask = w.ChargeWord(p, wi, mask)
	w.planeWords(p, wi, dst[:w.k])
	for l := 0; l < w.k; l++ {
		dst[l] &= mask
	}
}

// planeWords reads player p's truth words at wi into dst. This package's
// two sources are called directly, not through the interface, so dst does
// not escape and the callers' per-word scratch stays on the stack; any
// other source reads into a buffer of its own.
func (w *World) planeWords(p, wi int, dst []uint64) {
	switch src := w.src.(type) {
	case *DensePlanes:
		src.PlaneWords(p, wi, dst)
	case *LazyPlanes:
		src.PlaneWords(p, wi, dst)
	default:
		buf := make([]uint64, len(dst))
		src.PlaneWords(p, wi, buf)
		copy(dst, buf)
	}
}

// ProbeValues probes, as player p, every object of the compiled list g
// and returns the true ratings bit-sliced and indexed like g's positions.
// Each run of g (one object word, ascending objects) is one
// ProbePlaneWords call, which charges the run and reads the word's planes,
// and one compress per plane moves the run's bits into the output; the
// only allocation is the returned Planes. Probe charging is identical to
// calling Probe per object. Positions were range-checked when g was
// compiled, against a source length this world must have.
func (w *World) ProbeValues(p int, g *bitvec.Extraction) bitvec.Planes { return w.values(p, g, false) }

// values gathers player p's values at the objects of g into a fresh
// Planes, one word fetch per run: its behavior's reports
// (ReportPlaneWords) when ask is set, its probed truth (ProbePlaneWords)
// otherwise. The fetches are direct calls, so the word scratch stays on
// the stack.
func (w *World) values(p int, g *bitvec.Extraction, ask bool) bitvec.Planes {
	if g.SourceLen() != w.M() {
		panic(fmt.Sprintf("multival: list compiled for %d objects, world has %d", g.SourceLen(), w.M()))
	}
	out := bitvec.NewPlanes(g.Len(), w.k)
	var in [bitvec.MaxPlaneBits]uint64
	for r := 0; r < g.Runs(); r++ {
		wi, mask := g.Run(r)
		if ask {
			w.ReportPlaneWords(p, wi, mask, in[:w.k])
		} else {
			w.ProbePlaneWords(p, wi, mask, in[:w.k])
		}
		g.Extract(out, r, in[:w.k])
	}
	return out
}

// PeekTruth returns the true rating without accounting (adversary and
// measurement use).
func (w *World) PeekTruth(p, o int) int { return w.src.Rating(p, o) }

// TruthRow returns a copy of p's true ratings as a scalar row
// (measurement use only).
func (w *World) TruthRow(p int) Ratings { return Ratings(materializeRow(w.src, p).Ints()) }

// TruthMirror returns scale − truth for player p, word-parallel — the §7
// worst-case repetition output (adversary and measurement use; no probe
// accounting).
func (w *World) TruthMirror(p int) bitvec.Planes { return materializeRow(w.src, p).SubFrom(w.scale) }

// SetBehavior installs a behavior; non-Honest behaviors mark the player
// dishonest.
func (w *World) SetBehavior(p int, b Behavior) {
	w.behaviors[p] = b
	_, isHonest := b.(Honest)
	w.SetHonest(p, isHonest)
}

// Report asks p's behavior for its published rating of o.
func (w *World) Report(p, o int) int { return w.behaviors[p].Report(w, p, o) }

// ReportValues returns player p's reports for the objects of the compiled
// list g, bit-sliced and indexed like g's positions: one ReportPlaneWords
// per run of g. Honest players ride the bulk probe path (identical
// charging to per-object probes); dishonest players are asked per object
// through their behavior, in list order, with out-of-scale reports
// clamped as they are reported.
func (w *World) ReportValues(p int, g *bitvec.Extraction) bitvec.Planes {
	return w.values(p, g, !w.IsHonest(p))
}

// ReportPlaneWords writes player p's reports for the objects whose bits
// are set in mask within object word wi into dst (one word per plane,
// aligned with mask). Honest players ride ProbePlaneWords (two atomics for
// the whole word); dishonest players are asked per object through their
// behavior, in ascending object order, clamped into scale.
func (w *World) ReportPlaneWords(p, wi int, mask uint64, dst []uint64) {
	mask &= w.WordMask(wi)
	if w.IsHonest(p) {
		w.ProbePlaneWords(p, wi, mask, dst)
		return
	}
	for l := range dst {
		dst[l] = 0
	}
	base := wi * 64
	for t := mask; t != 0; t &= t - 1 {
		b := uint(bits.TrailingZeros64(t))
		v := clampRating(w.Report(p, base+int(b)), w.scale)
		for l := 0; l < w.k; l++ {
			if v>>l&1 == 1 {
				dst[l] |= 1 << b
			}
		}
	}
}

// Params configures the generalized protocol.
type Params struct {
	// B is the budget parameter (clusters of ≥ n/B − n/(3B) players).
	B int
	// MinD/MaxD restrict the diameter-doubling loop (L1 diameters).
	MinD, MaxD int

	// PhaseSerial forces the protocol's phase loops (publish, neighbor
	// graph, board share, final selection) onto the single-threaded
	// reference schedule; PhaseWorkers, when positive and PhaseSerial is
	// unset, pins them to exactly that many workers (par.Fixed). Phase
	// loops fan out on pre-split streams with index-ordered merges, so
	// fixed-seed output is byte-identical under every schedule — the same
	// contract as core.Params (DESIGN.md §9, §12).
	PhaseSerial  bool
	PhaseWorkers int
	// ByzSerial forces the Byzantine wrapper's repetitions to execute one
	// after another instead of concurrently, mirroring core.Params.
	ByzSerial bool
}

// The rating protocol's simulation-scale constants, mirroring core.Scaled
// (DESIGN.md §12): sampleFactor f sets |S| ≈ f·ln(n)·n·scale/D for
// diameter guess D (sampling rate f·ln(n)·scale/D per object, capped at
// 1), and edgeFactor e sets the neighbor threshold to e× the expected
// sampled L1 distance of a pair at the diameter guess (e·rate·D). The
// share's redundancy is core's, core.Scaled(n, B).Redundancy(n).
const (
	sampleFactor = 0.5
	edgeFactor   = 4
)

// Scaled returns the parameters for budget b; the rating constants are
// fixed, so n does not enter.
func Scaled(n, b int) Params { return Params{B: b} }

// phaseExec resolves the schedule flags to the phase-loop executor.
func phaseExec(pr Params) *par.Runner {
	return par.Sched(pr.PhaseSerial, pr.PhaseWorkers)
}

// Result is the protocol output: one bit-sliced rating vector per player,
// per-guess statistics, and the election bookkeeping of RunByzantine.
type Result = core.Outcome[bitvec.Planes]

// Run executes the generalized CalculatePreferences over the rating world,
// on core's doubling loop (core.Iterate) with the rating steps: every
// player publishes its sample ratings (ReportValues), the exact L1 graph
// (cluster.BuildGraphL1On), the greedy peel and core's board share over
// the rating planes (core.BoardShare), then an L1 spot check among the
// guesses. Shared coins are split per phase, per
// cluster, and per object from the given stream, so for a fixed seed the
// output is identical under every schedule (PhaseSerial, fixed-width,
// parallel).
func Run(w *World, shared *xrand.Stream, pr Params) *Result {
	exec := phaseExec(pr)
	n, m := w.N(), w.M()
	red := core.Scaled(n, pr.B).Redundancy(n)
	dom := core.Domain[bitvec.Planes]{
		Exec: exec, N: n, M: m, K: w.k,
		Report: w.ReportPlaneWords,
		Cand:   func(median bitvec.Planes) bitvec.Planes { return median },
	}
	rate := func(d int) float64 { return min(sampleFactor*core.LnN(n)*float64(w.scale)/float64(d), 1) }
	cands, res := core.Iterate(shared, core.Guesses(pr.MinD, pr.MaxD, n*w.scale), m, core.Steps[bitvec.Planes]{
		// No rating behavior reads published state.
		Pub:  &world.Public{},
		Rate: rate,
		// The sample is compiled once; every player's publish runs through it.
		Estimate: func(sample []int, _ *xrand.Stream) []bitvec.Planes {
			g := bitvec.CompileExtraction(sample, m)
			return par.MapOn(exec, n, func(p int) bitvec.Planes { return w.ReportValues(p, g) })
		},
		// A pair at true L1 distance d lands at ≈ rate·d on the sample, so
		// the edge threshold is a small multiple of that.
		Graph: func(z []bitvec.Planes, d int, _ *xrand.Stream) cluster.Graph {
			return cluster.BuildGraphL1On(exec, z, max(1, int(edgeFactor*rate(d)*float64(d))), cluster.RepAuto)
		},
		Peel: func(g cluster.Graph) *cluster.Clustering {
			return cluster.Build(g, core.Params{B: pr.B}.MinClusterSize(n))
		},
		Share: func(cl *cluster.Clustering, s *xrand.Stream, is *core.IterationStats) []bitvec.Planes {
			return core.BoardShare(dom, cl, s, is, red, nil)
		},
	})
	res.Output = selectL1(w, exec, cands, func(p int) *xrand.Stream {
		return shared.Split(0xFE11, uint64(p))
	})
	return res
}

// selectL1 is the final selection of Run and RunByzantine (the RSelect
// analogue; sampled L1 distances concentrate the same way): each honest
// player keeps the candidate whose ratings disagree least, in probed L1
// distance, with its own on a spotCheck sample drawn from rng(p).
// Coins are per player, so the outcome is schedule-independent.
func selectL1(w *World, exec *par.Runner, cands [][]bitvec.Planes, rng func(p int) *xrand.Stream) []bitvec.Planes {
	return core.SelectEach(exec, w, bitvec.NewPlanes(w.M(), w.k), cands, func(p int, col []bitvec.Planes) int {
		return spotCheck(w, p, rng(p), col)
	})
}

// spotCheck is player p's selection among the candidates col: it samples
// min(m, 8·⌊ln n⌋) objects from rng into a check bitmap (which shares one
// allocation with the truth planes), probes its truth
// once per touched object word (ProbePlaneWords with the word's check
// mask, so exactly the check objects are charged), and returns the
// candidate with the least L1 distance to the truth on the check set
// (Planes.MaskedL1), ties to the lowest index. A lone candidate is
// returned without drawing or probing.
func spotCheck(w *World, p int, rng *xrand.Stream, col []bitvec.Planes) int {
	if len(col) == 1 {
		return 0
	}
	m := w.M()
	// One allocation holds the check bitmap and the truth planes after it.
	stride := (m + 63) / 64
	buf := make([]uint64, (1+w.k)*stride)
	check, truth := buf[:stride], bitvec.PlanesIn(buf[stride:], m, w.k)
	rng.SampleBits(m, min(m, 8*int(core.LnN(w.N()))), check)
	var tw [bitvec.MaxPlaneBits]uint64
	for wi, mask := range check {
		if mask != 0 {
			w.ProbePlaneWords(p, wi, mask, tw[:])
			for l, x := range tw[:w.k] {
				truth.SetPlaneWord(l, wi, x)
			}
		}
	}
	best, bestMiss := 0, math.MaxInt
	for ci, c := range col {
		if miss := c.MaskedL1(truth, check); miss < bestMiss {
			best, bestMiss = ci, miss
		}
	}
	return best
}

// clampRating forces reported ratings into [0, scale] at report time
// (ReportPlaneWords, which ReportValues and the board share read through),
// so no out-of-scale value reaches the sample or the board.
func clampRating(r, scale int) int {
	if r < 0 {
		return 0
	}
	if r > scale {
		return scale
	}
	return r
}

// Errors returns per-honest-player L1 errors of the outputs, word-level.
func Errors(w *World, out []bitvec.Planes) []int {
	var errs []int
	for p := 0; p < w.N(); p++ {
		if !w.IsHonest(p) {
			continue
		}
		errs = append(errs, materializeRow(w.src, p).L1(out[p]))
	}
	return errs
}

// ErrorStats summarizes per-player L1 errors.
func ErrorStats(w *World, out []bitvec.Planes) metrics.ErrorStats {
	return metrics.Summarize(Errors(w, out))
}

// Generate plants clusters of the given size whose members are within L1
// diameter of each other on a 0..scale rating scale, mirroring
// prefgen.DiameterClusters. The returned rows are bit-sliced
// (PlaneBits(scale) planes each).
func Generate(rng *xrand.Stream, n, m, clusterSize, diameter, scale int) ([]bitvec.Planes, []int) {
	if clusterSize <= 0 || clusterSize > n {
		panic("multival: bad cluster size")
	}
	if scale < 1 {
		panic("multival: scale must be ≥ 1")
	}
	numClusters := n / clusterSize
	if numClusters == 0 {
		numClusters = 1
	}
	k := bitvec.PlaneBits(scale)
	centers := newPlanes(numClusters, m, k)
	truth := newPlanes(n, m, k)
	clusterOf := make([]int, n)
	for c := range centers {
		row := centers[c]
		for o := 0; o < m; o++ {
			row.Set(o, rng.Intn(scale+1))
		}
	}
	perm := rng.Perm(n)
	for rank, p := range perm {
		c := rank / clusterSize
		if c >= numClusters {
			c = numClusters - 1
		}
		clusterOf[p] = c
		row := truth[p]
		row.CopyFrom(centers[c])
		budget := diameter / 2
		for budget > 0 {
			o := rng.Intn(m)
			delta := 1
			if rng.Bool() {
				delta = -1
			}
			nv := row.Get(o) + delta
			if nv >= 0 && nv <= scale {
				row.Set(o, nv)
				budget--
			}
		}
	}
	return truth, clusterOf
}

// newPlanes returns count zeroed Planes of m values × k bits.
func newPlanes(count, m, k int) []bitvec.Planes {
	ps := make([]bitvec.Planes, count)
	for i := range ps {
		ps[i] = bitvec.NewPlanes(m, k)
	}
	return ps
}

// RandomRater is the non-binary random liar: consistent pseudo-random
// ratings.
type RandomRater struct{ Seed uint64 }

// Report returns a consistent pseudo-random rating.
func (r RandomRater) Report(w *World, p, o int) int {
	x := r.Seed ^ uint64(p)<<32 ^ uint64(o)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(w.Scale()+1))
}

// Exaggerator pushes every rating to the nearest extreme of the scale —
// the attack median aggregation is specifically robust to.
type Exaggerator struct{}

// Report returns 0 or scale depending on the player's true lean.
func (Exaggerator) Report(w *World, p, o int) int {
	if w.PeekTruth(p, o)*2 >= w.Scale() {
		return w.Scale()
	}
	return 0
}

// Shifter reports truth plus a constant bias (clamped), modeling a
// systematically harsh or generous dishonest reviewer.
type Shifter struct{ Delta int }

// Report returns the biased rating.
func (s Shifter) Report(w *World, p, o int) int {
	return clampRating(w.PeekTruth(p, o)+s.Delta, w.Scale())
}

// Inverter reports scale − truth: the rating-scale analogue of the binary
// complement liar (adversary.FlipAll).
type Inverter struct{}

// Report returns the mirrored rating.
func (Inverter) Report(w *World, p, o int) int {
	return w.Scale() - w.PeekTruth(p, o)
}
