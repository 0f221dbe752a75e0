// Package prefgen generates hidden preference matrices for the simulation.
//
// The paper's guarantees quantify over all inputs; its proofs are driven by
// specific structured families — planted clusters of identical preferences
// (Theorem 4), planted clusters of bounded diameter D (Theorem 5, Lemma 12),
// and the adversarial lower-bound distribution of Claim 2. This package
// implements each family, plus mixtures and Zipf-sized clusters for the
// example applications.
package prefgen

import (
	"fmt"

	"collabscore/internal/bitvec"
	"collabscore/internal/xrand"
)

// Instance is a generated preference matrix together with its planted
// structure, which experiments use as ground truth for OPT comparisons.
type Instance struct {
	// Truth[p] is player p's hidden preference vector (length M). It is nil
	// for lazily generated instances, whose truth lives behind Source() —
	// code that needs a materialized row uses Materialize. OPT oracles and
	// diameter measurements require dense truth.
	Truth []bitvec.Vector
	// ClusterOf[p] is the planted cluster index of player p, or -1 if p was
	// generated with independent random preferences.
	ClusterOf []int
	// Centers[c] is the prototype vector of planted cluster c. Lazy
	// instances leave it nil (their source keeps the center words).
	Centers []bitvec.Vector
	// PlantedDiameter is an upper bound on the diameter of each planted
	// cluster (0 for identical clusters, -1 if no bound was planted).
	PlantedDiameter int
	// src is the lazy truth source, set only by the Lazy* generators.
	src TruthSource
}

// Source returns the instance's truth as a TruthSource: the lazy source for
// lazily generated instances, a Dense wrapper over Truth otherwise.
func (in *Instance) Source() TruthSource {
	if in.src != nil {
		return in.src
	}
	return &Dense{rows: in.Truth}
}

// N returns the number of players.
func (in *Instance) N() int {
	if in.src != nil {
		return in.src.Players()
	}
	return len(in.Truth)
}

// M returns the number of objects.
func (in *Instance) M() int {
	if in.src != nil {
		return in.src.Objects()
	}
	if len(in.Truth) == 0 {
		return 0
	}
	return in.Truth[0].Len()
}

// ClusterMembers returns the player ids in planted cluster c.
func (in *Instance) ClusterMembers(c int) []int {
	var out []int
	for p, cc := range in.ClusterOf {
		if cc == c {
			out = append(out, p)
		}
	}
	return out
}

// newInstance returns an Instance with n zeroed truth vectors of length m,
// numCenters zeroed center vectors, and a ClusterOf slice of length n.
func newInstance(n, m, numCenters int) *Instance {
	in := &Instance{
		Truth:     newVecs(n, m),
		ClusterOf: make([]int, n),
	}
	if numCenters > 0 {
		in.Centers = newVecs(numCenters, m)
	}
	return in
}

// newVecs returns k zeroed vectors of length m.
func newVecs(k, m int) []bitvec.Vector {
	vs := make([]bitvec.Vector, k)
	for i := range vs {
		vs[i] = bitvec.New(m)
	}
	return vs
}

// Uniform generates n players with independent uniform preference vectors
// over m objects. No structure is planted.
func Uniform(rng *xrand.Stream, n, m int) *Instance {
	in := newInstance(n, m, 0)
	in.PlantedDiameter = -1
	for p := 0; p < n; p++ {
		fillRandom(rng, in.Truth[p])
		in.ClusterOf[p] = -1
	}
	return in
}

func randomVector(rng *xrand.Stream, m int) bitvec.Vector {
	v := bitvec.New(m)
	fillRandom(rng, v)
	return v
}

// fillRandom sets each bit of the zeroed vector v by a fair coin flip,
// drawing exactly the coins randomVector draws.
func fillRandom(rng *xrand.Stream, v bitvec.Vector) {
	for i := 0; i < v.Len(); i++ {
		if rng.Bool() {
			v.Set(i, true)
		}
	}
}

// IdenticalClusters partitions n players into clusters of exactly size
// clusterSize (the last cluster absorbs any remainder) and gives every
// member of a cluster the identical random prototype vector. This is the
// zero-radius setting of Theorem 4.
func IdenticalClusters(rng *xrand.Stream, n, m, clusterSize int) *Instance {
	return DiameterClusters(rng, n, m, clusterSize, 0)
}

// DiameterClusters plants clusters of size clusterSize whose members lie
// within Hamming distance diameter of each other: each member equals the
// cluster prototype with at most diameter/2 randomly chosen bits flipped.
// diameter = 0 yields identical clusters. Players are assigned to clusters
// in a random permutation so cluster membership is uncorrelated with id.
func DiameterClusters(rng *xrand.Stream, n, m, clusterSize, diameter int) *Instance {
	if clusterSize <= 0 || clusterSize > n {
		panic(fmt.Sprintf("prefgen: bad cluster size %d for n=%d", clusterSize, n))
	}
	numClusters := n / clusterSize
	if numClusters == 0 {
		numClusters = 1
	}
	in := newInstance(n, m, numClusters)
	in.PlantedDiameter = diameter
	for c := range in.Centers {
		fillRandom(rng, in.Centers[c])
	}
	perm := rng.Perm(n)
	for rank, p := range perm {
		c := rank / clusterSize
		if c >= numClusters {
			c = numClusters - 1 // remainder joins the last cluster
		}
		in.ClusterOf[p] = c
		v := in.Truth[p]
		v.CopyFrom(in.Centers[c])
		if diameter > 0 {
			radius := diameter / 2
			flips := rng.Intn(radius + 1)
			for _, i := range rng.Sample(m, flips) {
				v.Flip(i)
			}
		}
	}
	return in
}

// ZipfClusters plants numClusters clusters whose sizes follow a Zipf
// distribution with the given exponent (cluster 0 is largest), each of
// diameter at most diameter. This models the skewed taste populations of
// recommender workloads.
func ZipfClusters(rng *xrand.Stream, n, m, numClusters int, alpha float64, diameter int) *Instance {
	if numClusters <= 0 {
		panic("prefgen: numClusters must be positive")
	}
	in := newInstance(n, m, numClusters)
	in.PlantedDiameter = diameter
	for c := range in.Centers {
		fillRandom(rng, in.Centers[c])
	}
	z := xrand.NewZipf(rng, numClusters, alpha)
	for p := 0; p < n; p++ {
		c := z.Draw()
		in.ClusterOf[p] = c
		v := in.Truth[p]
		v.CopyFrom(in.Centers[c])
		if diameter > 0 {
			radius := diameter / 2
			flips := rng.Intn(radius + 1)
			for _, i := range rng.Sample(m, flips) {
				v.Flip(i)
			}
		}
	}
	return in
}

// Mixture generates players whose preferences interpolate between two
// random prototypes: player p agrees with prototype A on a random
// player-specific fraction of objects and with prototype B elsewhere. This
// produces a continuum of correlations rather than clean clusters, the
// regime where diameter guessing matters.
func Mixture(rng *xrand.Stream, n, m int) *Instance {
	a := randomVector(rng, m)
	b := randomVector(rng, m)
	in := &Instance{
		Truth:           make([]bitvec.Vector, n),
		ClusterOf:       make([]int, n),
		Centers:         []bitvec.Vector{a, b},
		PlantedDiameter: -1,
	}
	for p := 0; p < n; p++ {
		frac := rng.Float64()
		v := bitvec.New(m)
		for i := 0; i < m; i++ {
			if rng.Bernoulli(frac) {
				v.Set(i, a.Get(i))
			} else {
				v.Set(i, b.Get(i))
			}
		}
		in.Truth[p] = v
		if frac >= 0.5 {
			in.ClusterOf[p] = 0
		} else {
			in.ClusterOf[p] = 1
		}
	}
	return in
}

// BlockStructured realizes the "hidden structure" remark of §2: certain
// sets of players have correlated preferences on certain subsets of the
// objects. The object space is split into blocks; for each block, each
// player group independently either shares the group's block prototype
// (with probability coherence) or is uniformly random there. No global
// cluster structure exists — correlation lives at the (group, block)
// level — which stresses the protocol's diameter search.
func BlockStructured(rng *xrand.Stream, n, m, numGroups, numBlocks int, coherence float64) *Instance {
	if numGroups <= 0 || numBlocks <= 0 {
		panic("prefgen: groups and blocks must be positive")
	}
	in := &Instance{
		Truth:           make([]bitvec.Vector, n),
		ClusterOf:       make([]int, n),
		Centers:         make([]bitvec.Vector, numGroups),
		PlantedDiameter: -1,
	}
	// Block boundaries.
	blockOf := make([]int, m)
	for o := 0; o < m; o++ {
		blockOf[o] = o * numBlocks / m
	}
	// Per-(group, block) prototypes.
	proto := make([][]bitvec.Vector, numGroups)
	for g := range proto {
		proto[g] = make([]bitvec.Vector, numBlocks)
		for bl := range proto[g] {
			proto[g][bl] = randomVector(rng, m) // only the block's bits are used
		}
		in.Centers[g] = proto[g][0]
	}
	for p := 0; p < n; p++ {
		g := p * numGroups / n
		in.ClusterOf[p] = g
		v := bitvec.New(m)
		// Decide coherence per (player, block).
		coherent := make([]bool, numBlocks)
		for bl := range coherent {
			coherent[bl] = rng.Bernoulli(coherence)
		}
		for o := 0; o < m; o++ {
			bl := blockOf[o]
			if coherent[bl] {
				v.Set(o, proto[g][bl].Get(o))
			} else {
				v.Set(o, rng.Bool())
			}
		}
		in.Truth[p] = v
	}
	return in
}

// AdversarialClaim2 builds the lower-bound instance from the proof of
// Claim 2. A special set P of n/B players (including a distinguished player
// p₀ = the first element) shares p₀'s random vector except on a special set
// S of D objects, where each member's bits are random. All players outside
// P have fully random vectors. No B-budget algorithm can predict p₀'s
// preferences on S better than guessing, so p₀'s error is ≥ D/4 in
// expectation.
//
// The returned instance plants one cluster (index 0) containing exactly the
// special players; SpecialObjects lists S.
func AdversarialClaim2(rng *xrand.Stream, n, m, b, d int) (*Instance, []int) {
	if d >= m/4 || d < 1 {
		panic(fmt.Sprintf("prefgen: Claim 2 requires 1 <= D < m/4, got D=%d m=%d", d, m))
	}
	groupSize := n / b
	if groupSize < 2 {
		panic(fmt.Sprintf("prefgen: Claim 2 requires n/B >= 2, got n=%d B=%d", n, b))
	}
	in := &Instance{
		Truth:           make([]bitvec.Vector, n),
		ClusterOf:       make([]int, n),
		Centers:         make([]bitvec.Vector, 1),
		PlantedDiameter: d,
	}
	base := randomVector(rng, m) // v(p₀)
	in.Centers[0] = base
	special := rng.Sample(m, d) // the special object set S
	members := rng.Sample(n, groupSize)
	inGroup := make(map[int]bool, groupSize)
	for _, p := range members {
		inGroup[p] = true
	}
	first := true
	for p := 0; p < n; p++ {
		if !inGroup[p] {
			in.ClusterOf[p] = -1
			in.Truth[p] = randomVector(rng, m)
			continue
		}
		in.ClusterOf[p] = 0
		if first {
			// p₀ keeps the base vector exactly.
			in.Truth[p] = base.Clone()
			first = false
			continue
		}
		v := base.Clone()
		for _, o := range special {
			v.Set(o, rng.Bool())
		}
		in.Truth[p] = v
	}
	return in, special
}
