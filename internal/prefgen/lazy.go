package prefgen

// Lazy truth sources: the generated matrix as a pure function instead of a
// buffer. xrand's SplitMix64 streams are counter-based — draw i is an O(1)
// function of the stream state (xrand.At) — and the dense generators consume
// their coins in a fixed layout (fillRandom draws exactly one coin per bit,
// row-major), so any truth cell of the SAME generation stream is randomly
// addressable without enumerating its predecessors, the d2xyz/xyz2d
// index-function idiom applied to world generation (DESIGN.md §14).
//
// Seed-stream layout, per generator, relative to the stream at entry:
//
//	Uniform:           draw p·m + o        = coin for bit (p, o)
//	DiameterClusters:  draw c·m + o        = coin for center bit (c, o)
//	                   then Perm(n), then per-player flip draws (variable)
//	ZipfClusters:      draw c·m + o        = coin for center bit (c, o)
//	                   then per-player Zipf + flip draws (variable)
//
// The fixed-layout prefixes (uniform rows, cluster centers) are recomputed
// on demand via At; the variable-draw suffixes (permutation, per-player
// flips — Intn uses rejection sampling and is not randomly addressable) are
// replayed ONCE at construction into O(n + flips) sparse metadata. A lazy
// constructor advances the caller's stream to exactly the state the dense
// generator leaves it in, and produces bit-identical truth.

import (
	"fmt"
	"math/bits"
	"slices"

	"collabscore/internal/xrand"
)

type lazyKind uint8

const (
	lazyUniform lazyKind = iota
	lazyCluster
	lazyZipf
)

// Lazy is the on-demand TruthSource. It holds the generation stream
// snapshot (read via xrand.At only — never advanced, so concurrent reads
// are safe) and the replayed sparse metadata.
type Lazy struct {
	n, m, words int
	base        xrand.Stream // entry-state snapshot; At-only after construction
	kind        lazyKind
	numCenters  int
	// clusterOf maps players to center rows (planted kinds; shared with the
	// Instance's ClusterOf).
	clusterOf []int
	// Per-player flip edits, flattened: player p's entries are
	// flipWord/flipMask[flipStart[p]:flipStart[p+1]], word-ascending.
	// XORing them onto the center row reproduces the dense flips exactly.
	flipStart []int32
	flipWord  []int32
	flipMask  []uint64
}

// Players returns n.
func (lz *Lazy) Players() int { return lz.n }

// Objects returns m.
func (lz *Lazy) Objects() int { return lz.m }

// rowID returns the generation row of player p: itself for uniform truth,
// its planted center for clustered truth.
func (lz *Lazy) rowID(p int) int {
	if lz.kind == lazyUniform {
		return p
	}
	return lz.clusterOf[p]
}

// rawBits generates the bits of mask in word wi of generation row `row`
// straight from the coin stream: bit b is coin row·m + wi·64 + b, exactly
// the coin fillRandom spent on it. It hashes only the mask's bits — one
// SplitMix step each — and bits past the last object stay zero.
func (lz *Lazy) rawBits(row, wi int, mask uint64) uint64 {
	if nbits := lz.m - wi*64; nbits < 64 {
		mask &= 1<<uint(nbits) - 1
	}
	base := uint64(row)*uint64(lz.m) + uint64(wi)*64
	var w uint64
	for rest := mask; rest != 0; rest &= rest - 1 {
		b := uint(bits.TrailingZeros64(rest))
		w |= (lz.base.At(base+uint64(b)) & 1) << b
	}
	return w
}

// flipMaskAt returns the XOR mask of player p's flip edits in word wi
// (zero for the uniform kind and for players without edits there). A
// player's entries are word-ascending with one entry per word, so a binary
// search finds the edit in O(log edits): planted radii reach hundreds of
// edits per player at large m, where a scan dominated the probe path.
func (lz *Lazy) flipMaskAt(p, wi int) uint64 {
	if lz.flipStart == nil {
		return 0
	}
	lo, hi := lz.flipStart[p], lz.flipStart[p+1]
	if i, ok := slices.BinarySearch(lz.flipWord[lo:hi], int32(wi)); ok {
		return lz.flipMask[int(lo)+i]
	}
	return 0
}

// TruthWord implements TruthSource: the full word, TruthBits with every
// bit requested.
func (lz *Lazy) TruthWord(p, wi int) uint64 { return lz.TruthBits(p, wi, ^uint64(0)) }

// TruthBits implements TruthSource: the center/row bits XOR the player's
// flip edits, masked. A read costs one hash per requested object plus the
// O(log edits) flip lookup. It panics on an out-of-range word index exactly
// like bitvec.Vector.WordMask, so lazy and dense worlds fail identically.
func (lz *Lazy) TruthBits(p, wi int, mask uint64) uint64 {
	if wi < 0 || wi >= lz.words {
		panic(fmt.Sprintf("prefgen: word %d out of range [0,%d)", wi, lz.words))
	}
	return (lz.rawBits(lz.rowID(p), wi, mask) ^ lz.flipMaskAt(p, wi)) & mask
}

// lazyFlipEnt is one replayed flip edit before the per-player flatten.
type lazyFlipEnt struct {
	p    int32
	word int32
	mask uint64
}

// lazyInstance prepares the shared parts of a lazy construction: the
// instance, its cluster assignment, and the stream snapshot.
func lazyInstance(rng *xrand.Stream, n, m int) (*Instance, *Lazy) {
	in := &Instance{ClusterOf: make([]int, n)}
	lz := &Lazy{
		n: n, m: m, words: (m + 63) / 64,
		base:      *rng, // pure At reads from here on; rng itself keeps advancing
		clusterOf: in.ClusterOf,
	}
	in.src = lz
	return in, lz
}

// LazyUniform is the lazy Uniform: identical truth and stream consumption,
// O(1) memory.
func LazyUniform(rng *xrand.Stream, n, m int) *Instance {
	in, lz := lazyInstance(rng, n, m)
	in.PlantedDiameter = -1
	lz.kind = lazyUniform
	for p := range in.ClusterOf {
		in.ClusterOf[p] = -1
	}
	// Dense Uniform draws one coin per cell, row-major; leave the caller's
	// stream exactly where it would have.
	rng.Skip(uint64(n) * uint64(m))
	return in
}

// LazyDiameterClusters is the lazy DiameterClusters: identical truth and
// stream consumption, O(n + flips) memory. Centers are never materialized —
// a member's row is its center's coin words XOR its replayed flip edits.
//
// Deprecated: the trailing tiles argument is ignored — lazy sources have no
// tile cache. It stays only so the benchmark replay (bench/layers.go)
// compiles, and is removed together with that replay.
func LazyDiameterClusters(rng *xrand.Stream, n, m, clusterSize, diameter, tiles int) *Instance {
	if clusterSize <= 0 || clusterSize > n {
		panic(fmt.Sprintf("prefgen: bad cluster size %d for n=%d", clusterSize, n))
	}
	numClusters := n / clusterSize
	if numClusters == 0 {
		numClusters = 1
	}
	in, lz := lazyInstance(rng, n, m)
	in.PlantedDiameter = diameter
	lz.kind = lazyCluster
	lz.numCenters = numClusters
	// Dense draws numClusters·m center coins first; skip them — rawBits
	// regenerates any of them on demand.
	rng.Skip(uint64(numClusters) * uint64(m))
	perm := rng.Perm(n)
	var ents []lazyFlipEnt
	for rank, p := range perm {
		c := rank / clusterSize
		if c >= numClusters {
			c = numClusters - 1 // remainder joins the last cluster
		}
		in.ClusterOf[p] = c
		ents = replayFlips(rng, ents, int32(p), m, diameter)
	}
	lz.flattenFlips(ents)
	return in
}

// LazyZipfClusters is the lazy ZipfClusters: identical truth and stream
// consumption, O(n + flips) memory.
func LazyZipfClusters(rng *xrand.Stream, n, m, numClusters int, alpha float64, diameter int) *Instance {
	if numClusters <= 0 {
		panic("prefgen: numClusters must be positive")
	}
	in, lz := lazyInstance(rng, n, m)
	in.PlantedDiameter = diameter
	lz.kind = lazyZipf
	lz.numCenters = numClusters
	rng.Skip(uint64(numClusters) * uint64(m))
	z := xrand.NewZipf(rng, numClusters, alpha)
	var ents []lazyFlipEnt
	for p := 0; p < n; p++ {
		in.ClusterOf[p] = z.Draw()
		ents = replayFlips(rng, ents, int32(p), m, diameter)
	}
	lz.flattenFlips(ents)
	return in
}

// replayFlips draws one player's flip edits exactly as the dense generator
// does (Intn then Sample — both variable-draw, hence the replay) and
// appends them as merged (word, mask) entries. Sample returns sorted
// objects, so entries come out word-ascending.
func replayFlips(rng *xrand.Stream, ents []lazyFlipEnt, p int32, m, diameter int) []lazyFlipEnt {
	if diameter <= 0 {
		return ents
	}
	radius := diameter / 2
	flips := rng.Intn(radius + 1)
	for _, o := range rng.Sample(m, flips) {
		word, bit := int32(o/64), uint64(1)<<(uint(o)%64)
		if k := len(ents); k > 0 && ents[k-1].p == p && ents[k-1].word == word {
			ents[k-1].mask |= bit
			continue
		}
		ents = append(ents, lazyFlipEnt{p: p, word: word, mask: bit})
	}
	return ents
}

// flattenFlips counting-sorts the replayed entries by player into the
// Lazy's flat per-player ranges (stable, so word order is preserved).
func (lz *Lazy) flattenFlips(ents []lazyFlipEnt) {
	n := lz.n
	start := make([]int32, n+1)
	words := make([]int32, len(ents))
	masks := make([]uint64, len(ents))
	for _, e := range ents {
		start[e.p+1]++
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	// Scatter using a moving cursor per player; each player's entries are
	// contiguous in ents, so a single pass with the prefix copy is stable.
	cursor := append([]int32(nil), start[:n]...)
	for _, e := range ents {
		pos := cursor[e.p]
		cursor[e.p]++
		words[pos], masks[pos] = e.word, e.mask
	}
	lz.flipStart, lz.flipWord, lz.flipMask = start, words, masks
}
