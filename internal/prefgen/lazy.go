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
// Uniform rows are read on demand through At, one hash per requested bit.
// Cluster centers are drawn once, at construction, into numCenters·⌈m/64⌉
// words held in memory: B centers fit in kilobytes where a hash per probed
// bit would dominate the read. The variable-draw suffixes (permutation,
// per-player flips — Intn uses rejection sampling and is not randomly
// addressable) are replayed ONCE at construction into O(n + flips) sparse
// metadata. A lazy constructor advances the caller's stream to exactly the
// state the dense generator leaves it in, and produces bit-identical truth.

import (
	"fmt"
	"math/bits"
	"slices"

	"collabscore/internal/xrand"
)

// Lazy is the on-demand TruthSource. It holds the generation stream
// snapshot (read via xrand.At only — never advanced, so concurrent reads
// are safe), the planted center rows, and the replayed sparse metadata.
type Lazy struct {
	n, m, words int
	base        xrand.Stream // entry-state snapshot; At-only after construction
	// centers holds the planted kinds' center rows, words-strided: center
	// c's word wi is centers[c·words + wi]. It is nil for uniform truth,
	// whose rows are hashed on demand.
	centers []uint64
	// clusterOf maps players to center rows (planted kinds; shared with the
	// Instance's ClusterOf).
	clusterOf []int
	// Per-player flip edits, flattened: player p's entries are
	// flipWord/flipMask[flipStart[p]:flipStart[p+1]], word-ascending.
	// XORing them onto the center row reproduces the dense flips exactly.
	flipStart []int32
	flipWord  []int32
	flipMask  []uint64
	// flipSeen[p] is player p's flip filter: bit wi>>flipShift is set when
	// p has an edit in word wi. flipShift is the smallest shift that maps
	// every word into 64 buckets, so a bucket is one word when m ≤ 4096.
	flipSeen  []uint64
	flipShift uint
}

// Players returns n.
func (lz *Lazy) Players() int { return lz.n }

// Objects returns m.
func (lz *Lazy) Objects() int { return lz.m }

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

// flipMaskAt returns the XOR mask of player p's flip edits in word wi of a
// planted source (zero when p has none there). A clear filter bit answers
// without touching the flip arrays. Otherwise the edit
// sits in [start+rank, end−later): every non-empty bucket before wi's holds
// at least one earlier edit and every later one at least one later edit.
// When buckets are single words the lower end is the edit itself, so the
// first compare hits; wider buckets binary-search the rest of the range.
func (lz *Lazy) flipMaskAt(p, wi int) uint64 {
	seen := lz.flipSeen[p]
	b := uint(wi) >> lz.flipShift
	if seen>>b&1 == 0 {
		return 0
	}
	lo := int(lz.flipStart[p]) + bits.OnesCount64(seen&(1<<b-1))
	if lz.flipWord[lo] == int32(wi) {
		return lz.flipMask[lo]
	}
	hi := int(lz.flipStart[p+1]) - bits.OnesCount64(seen>>b>>1)
	if i, ok := slices.BinarySearch(lz.flipWord[lo+1:hi], int32(wi)); ok {
		return lz.flipMask[lo+1+i]
	}
	return 0
}

// TruthWord implements TruthSource: the full word, TruthBits with every
// bit requested.
func (lz *Lazy) TruthWord(p, wi int) uint64 { return lz.TruthBits(p, wi, ^uint64(0)) }

// TruthBits implements TruthSource. Planted truth is the player's stored
// center word XOR its flip edits, masked: O(1) and hash-free for a player
// whose flip filter misses, plus a search of one bucket's edits otherwise.
// Uniform truth hashes one coin per requested object. It panics on an
// out-of-range word index exactly like bitvec.Vector.WordMask, so lazy and
// dense worlds fail identically.
func (lz *Lazy) TruthBits(p, wi int, mask uint64) uint64 {
	if wi < 0 || wi >= lz.words {
		panic(fmt.Sprintf("prefgen: word %d out of range [0,%d)", wi, lz.words))
	}
	if lz.centers == nil {
		return lz.rawBits(p, wi, mask)
	}
	return (lz.centers[lz.clusterOf[p]*lz.words+wi] ^ lz.flipMaskAt(p, wi)) & mask
}

// fillCenters draws the numCenters planted center rows from rng exactly as
// the dense generator's fillRandom does, one coin per bit, row-major, so
// the rows are bit-identical and rng ends where the dense generator leaves
// it.
func (lz *Lazy) fillCenters(rng *xrand.Stream, numCenters int) {
	lz.centers = make([]uint64, numCenters*lz.words)
	s := *rng // a local copy keeps the stream state in a register
	for c := 0; c < numCenters; c++ {
		row := lz.centers[c*lz.words : (c+1)*lz.words]
		for wi := range row {
			var w uint64
			for b := range min(64, lz.m-wi*64) {
				w |= (s.Uint64() & 1) << uint(b)
			}
			row[wi] = w
		}
	}
	*rng = s
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
	in, _ := lazyInstance(rng, n, m)
	in.PlantedDiameter = -1
	for p := range in.ClusterOf {
		in.ClusterOf[p] = -1
	}
	// Dense Uniform draws one coin per cell, row-major; leave the caller's
	// stream exactly where it would have.
	rng.Skip(uint64(n) * uint64(m))
	return in
}

// LazyDiameterClusters is the lazy DiameterClusters: identical truth and
// stream consumption, O(n + flips + numClusters·⌈m/64⌉) memory. A member's
// row is its stored center row XOR its replayed flip edits.
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
	lz.fillCenters(rng, numClusters)
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
// consumption, O(n + flips + numClusters·⌈m/64⌉) memory.
func LazyZipfClusters(rng *xrand.Stream, n, m, numClusters int, alpha float64, diameter int) *Instance {
	if numClusters <= 0 {
		panic("prefgen: numClusters must be positive")
	}
	in, lz := lazyInstance(rng, n, m)
	in.PlantedDiameter = diameter
	lz.fillCenters(rng, numClusters)
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
// Lazy's flat per-player ranges (stable, so word order is preserved) and
// sets each player's flip filter.
func (lz *Lazy) flattenFlips(ents []lazyFlipEnt) {
	n := lz.n
	start := make([]int32, n+1)
	words := make([]int32, len(ents))
	masks := make([]uint64, len(ents))
	seen := make([]uint64, n)
	shift := uint(max(0, bits.Len(uint(lz.words-1))-6))
	for _, e := range ents {
		start[e.p+1]++
		seen[e.p] |= 1 << (uint(e.word) >> shift)
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
	lz.flipSeen, lz.flipShift = seen, shift
}
