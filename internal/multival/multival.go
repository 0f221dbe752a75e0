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
//     Θ(log n)-fold redundancy, aggregated by MEDIAN — the median of
//     Θ(log n) reports from a ≥2/3-honest cluster is within the honest
//     rating spread even under adversarial manipulation (the rank
//     statistics version of the majority argument in Lemma 13).
//
// Probing the sample directly (instead of the binary SmallRadius recursion)
// costs |S| probes per player; the binary machinery's probe savings rely on
// exact-agreement vote counting, which does not transfer to dense rating
// scales. The cluster work-sharing savings — the dominant term — transfer
// unchanged.
//
// The protocol runs on core's doubling loop (core.Iterate): this package
// supplies only the rating steps — the publish on the sample, the L1 graph,
// the greedy peel and the median share — and the L1 spot check that
// selects among guesses (core.SelectEach), and RunByzantine is core's
// generic §7 wrapper (core.RunByzantineOver), so ratings share core's
// stream layout, per-guess statistics (core.IterationStats) and result
// shape (Result = core.Outcome[bitvec.Planes]). Rating rows are bit-sliced
// into ⌈log₂(scale+1)⌉ bit-planes (bitvec.Planes) so L1 distances are
// word-level plane arithmetic, the probe memo is a lock-free CAS bitset
// with bulk whole-word charging, and phase loops fan out on par.Runner
// schedules gated by Params.PhaseSerial/PhaseWorkers with index-ordered
// merges, so fixed-seed outputs are identical under every schedule
// (DESIGN.md §12).
package multival

import (
	"fmt"
	"math/bits"
	"sort"

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

// Median returns the lower median of xs (xs is modified by sorting). It is
// the scalar reference of the counting median the work-share phase uses.
func Median(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	sort.Ints(xs)
	return xs[(len(xs)-1)/2]
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
	w.src.PlaneWords(p, wi, dst[:w.k])
	for l := 0; l < w.k; l++ {
		dst[l] &= mask
	}
}

// ProbeValues probes, as player p, every object in objs and returns the
// true ratings bit-sliced and indexed like objs. Runs of objects sharing a
// 64-bit word — the common case, since protocol object lists are sorted —
// collapse into one ProbePlaneWords call, which charges the run and gathers
// the word's planes; each object's bits are then shifted into the output
// plane words, and the only allocation is the returned Planes. Probe charging is
// identical to calling Probe per object. Every object is range-checked
// before any is charged, so a bad list panics with the ledger untouched.
func (w *World) ProbeValues(p int, objs []int) bitvec.Planes {
	for _, o := range objs {
		if o < 0 || o >= w.M() {
			panic(fmt.Sprintf("multival: object %d out of range [0,%d)", o, w.M()))
		}
	}
	out := bitvec.NewPlanes(len(objs), w.k)
	// in holds the charged truth words of the current object word; acc
	// the output plane words being filled for objs[j&^63 : j+1].
	var in, acc [bitvec.MaxPlaneBits]uint64
	for j := 0; j < len(objs); {
		wi := objs[j] / 64
		end := j + 1
		mask := uint64(1) << (uint(objs[j]) % 64)
		for end < len(objs) && objs[end]/64 == wi {
			mask |= 1 << (uint(objs[end]) % 64)
			end++
		}
		w.ProbePlaneWords(p, wi, mask, in[:])
		for ; j < end; j++ {
			b, ob := uint(objs[j])%64, uint(j)%64
			for l := 0; l < w.k; l++ {
				acc[l] |= (in[l] >> b & 1) << ob
			}
			if ob == 63 || j == len(objs)-1 {
				for l := 0; l < w.k; l++ {
					out.SetPlaneWord(l, j/64, acc[l])
					acc[l] = 0
				}
			}
		}
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

// ReportValues returns player p's reports for the given objects,
// bit-sliced and indexed like objs. Honest players ride the bulk probe
// path (ProbeValues, identical charging to per-object probes); dishonest
// players are asked per object through their behavior, with out-of-scale
// reports clamped — the bulletin board validates writes.
func (w *World) ReportValues(p int, objs []int) bitvec.Planes {
	if w.IsHonest(p) {
		return w.ProbeValues(p, objs)
	}
	out := bitvec.NewPlanes(len(objs), w.k)
	for j, o := range objs {
		out.Set(j, clampRating(w.Report(p, o), w.scale))
	}
	return out
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
	// SampleFactor f sets |S| ≈ f·ln(n)·n·scale/D for diameter guess D
	// (sampling rate f·ln(n)·scale/D per object, capped at 1).
	SampleFactor float64
	// EdgeFactor e sets the neighbor threshold to e× the expected sampled
	// L1 distance of a pair at the diameter guess (e·rate·D).
	EdgeFactor float64
	// RedundancyFactor r sets ⌈r·ln n⌉ probers per (cluster, object).
	RedundancyFactor float64
	// MinD/MaxD restrict the diameter-doubling loop (L1 diameters).
	MinD, MaxD int

	// PhaseSerial forces the protocol's phase loops (publish, neighbor
	// graph, median work-share, final selection) onto the single-threaded
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

// Scaled returns simulation-scale constants mirroring core.Scaled.
func Scaled(n, b int) Params {
	return Params{B: b, SampleFactor: 0.5, EdgeFactor: 4, RedundancyFactor: 1.5}
}

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
// (cluster.BuildGraphL1On), the greedy peel and the median share, then an
// L1 spot check among the guesses. Shared coins are split per phase, per
// cluster, and per object from the given stream, so for a fixed seed the
// output is identical under every schedule (PhaseSerial, fixed-width,
// parallel).
func Run(w *World, shared *xrand.Stream, pr Params) *Result {
	exec := phaseExec(pr)
	n, m := w.N(), w.M()
	rate := func(d int) float64 { return min(pr.SampleFactor*core.LnN(n)*float64(w.scale)/float64(d), 1) }
	cands, res := core.Iterate(shared, core.Guesses(pr.MinD, pr.MaxD, n*w.scale), m, core.Steps[bitvec.Planes]{
		// No rating behavior reads published state.
		Pub:  &world.Public{},
		Rate: rate,
		Estimate: func(sample []int, _ *xrand.Stream) []bitvec.Planes {
			return par.MapOn(exec, n, func(p int) bitvec.Planes { return w.ReportValues(p, sample) })
		},
		// A pair at true L1 distance d lands at ≈ rate·d on the sample, so
		// the edge threshold is a small multiple of that.
		Graph: func(z []bitvec.Planes, d int, _ *xrand.Stream) cluster.Graph {
			return cluster.BuildGraphL1On(exec, z, max(1, int(pr.EdgeFactor*rate(d)*float64(d))), cluster.RepAuto)
		},
		Peel: func(g cluster.Graph) *cluster.Clustering {
			return cluster.Build(g, core.Params{B: pr.B}.MinClusterSize(n))
		},
		Share: func(cl *cluster.Clustering, s *xrand.Stream, _ *core.IterationStats) []bitvec.Planes {
			return medianShare(w, exec, cl, s, pr)
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
// distance, with its own on a core.SpotCheck sample drawn from rng(p).
// Coins are per player, so the outcome is schedule-independent.
func selectL1(w *World, exec *par.Runner, cands [][]bitvec.Planes, rng func(p int) *xrand.Stream) []bitvec.Planes {
	n, m := w.N(), w.M()
	return core.SelectEach(exec, w, bitvec.NewPlanes(m, w.k), cands, func(p int, col []bitvec.Planes) int {
		return core.SpotCheck(rng(p), n, m, len(col), func(ci, o int) int {
			d := col[ci].Get(o) - w.Probe(p, o)
			return max(d, -d)
		})
	})
}

// medianShare shares the probing of every object within each cluster,
// aggregated by median, over (cluster, word-block) cells — 64 objects per
// cell — with per-worker scratch arenas (no allocation in the loop body).
// For each object the per-(cluster, object) stream
// s.SplitValue(0x5C, j).SplitValue(o) picks red probers with repetition
// (exactly the scalar engine's draw order); each touched member's reports
// for the whole block are fetched once, bit-sliced (bulk probes for honest
// members), and the per-object counting median — equal to Median over the
// same multiset — is accumulated a plane word at a time. Every member of a
// cluster shares the cluster's one immutable median vector; candidates are
// never mutated downstream, so a per-member clone would be pure
// allocation.
func medianShare(w *World, exec *par.Runner, cl *cluster.Clustering, shared *xrand.Stream, pr Params) []bitvec.Planes {
	n, m := w.N(), w.M()
	red := int(pr.RedundancyFactor*core.LnN(n)) + 1
	majs := newPlanes(len(cl.Clusters), m, w.k)
	core.ForCells(exec, cl.Clusters, m, func(j int) xrand.Stream { return shared.SplitValue(0x5C, uint64(j)) },
		func(maxMembers int) *mvScratch {
			return &mvScratch{
				picks:   make([]int, 64*red),
				mask:    make([]uint64, maxMembers),
				vals:    make([]uint64, maxMembers*w.k),
				touched: make([]int, 0, maxMembers),
				counts:  make([]int, w.scale+1),
				outw:    make([]uint64, w.k),
			}
		},
		func(sc *mvScratch, clRng *xrand.Stream, j, wb, base, hi int) {
			members := cl.Clusters[j]
			// Pass 1: shared coins choose each object's probers (member
			// indices, with repetition — duplicates count twice in the
			// median, as in the scalar engine), accumulating each touched
			// member's 64-object fetch mask.
			for o := base; o < hi; o++ {
				rng := clRng.SplitValue(uint64(o))
				row := sc.picks[(o-base)*red : (o-base)*red+red]
				bit := uint64(1) << uint(o-base)
				for i := range row {
					mi := rng.Intn(len(members))
					row[i] = mi
					if sc.mask[mi] == 0 {
						sc.touched = append(sc.touched, mi)
					}
					sc.mask[mi] |= bit
				}
			}
			// Pass 2: fetch each touched member's bit-sliced reports for the
			// block — one bulk probe (two atomics) per honest (member, block).
			for _, mi := range sc.touched {
				w.ReportPlaneWords(members[mi], wb, sc.mask[mi], sc.vals[mi*w.k:mi*w.k+w.k])
			}
			// Pass 3: per-object counting median, accumulated into plane
			// words.
			for l := 0; l < w.k; l++ {
				sc.outw[l] = 0
			}
			for o := base; o < hi; o++ {
				b := uint(o - base)
				for v := range sc.counts {
					sc.counts[v] = 0
				}
				row := sc.picks[(o-base)*red : (o-base)*red+red]
				for _, mi := range row {
					v := 0
					vals := sc.vals[mi*w.k : mi*w.k+w.k]
					for l, wv := range vals {
						v |= int(wv>>b&1) << l
					}
					sc.counts[v]++
				}
				med, cum := 0, 0
				target := (red - 1) / 2
				for v, c := range sc.counts {
					cum += c
					if cum > target {
						med = v
						break
					}
				}
				for l := 0; l < w.k; l++ {
					if med>>l&1 == 1 {
						sc.outw[l] |= 1 << b
					}
				}
			}
			for l := 0; l < w.k; l++ {
				majs[j].SetPlaneWord(l, wb, sc.outw[l])
			}
			for _, mi := range sc.touched {
				sc.mask[mi] = 0
			}
			sc.touched = sc.touched[:0]
		})
	return core.Broadcast(n, bitvec.NewPlanes(m, w.k), cl.Clusters, majs)
}

// mvScratch is one worker's reusable buffers for the median work-share
// loop: the per-object prober choices for a 64-object block, each touched
// member's fetch mask and bit-sliced report words, the counting-median
// histogram, and the accumulated output plane words.
type mvScratch struct {
	picks   []int    // 64·red prober choices (member indices) for one block
	mask    []uint64 // mask[mi] = member mi's fetch mask, this block
	vals    []uint64 // vals[mi·k : (mi+1)·k] = member mi's report planes
	touched []int    // member indices with mask != 0, in first-touch order
	counts  []int    // scale+1 counting-median histogram
	outw    []uint64 // k accumulated median plane words
}

// clampRating forces reported ratings into [0, scale]; dishonest players
// cannot inject out-of-scale values (the bulletin board validates writes).
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
