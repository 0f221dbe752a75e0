package multival

// The rating-world half of the truth-source seam (DESIGN.md §14). Unlike
// the binary generators — whose coin layout is fixed, so any cell is an
// O(1) xrand.At read — Generate draws center cells with Intn (Lemire
// rejection sampling, variable draws per cell), which is not randomly
// addressable. The lazy representation therefore materializes the CENTER
// rows only (numClusters ≪ n of them) and replays each player's bounded
// ±1 edit walk into sorted sparse (object, value) overrides: memory drops
// from O(n·m·k) bits to O((n/clusterSize)·m·k + n·diameter) while every
// cell stays bit-identical to the dense matrix.

import (
	"fmt"
	"slices"
	"sort"

	"collabscore/internal/bitvec"
	"collabscore/internal/xrand"
)

// RatingSource is the pluggable representation of a hidden rating matrix:
// n players × m objects of ratings in [0, scale], bit-sliced into Bits()
// planes. Implementations must be pure and safe for concurrent readers.
// PlaneWords writes one full object word per plane (bits past the last
// object zero), mirroring bitvec.Planes.PlaneWord.
type RatingSource interface {
	Players() int
	Objects() int
	// Bits returns the number of bit-planes per rating, PlaneBits(scale).
	Bits() int
	// Rating returns the single true rating of (p, o).
	Rating(p, o int) int
	// PlaneWords writes the Bits() plane words of player p's object word wi
	// into dst (dst must have at least Bits() entries).
	PlaneWords(p, wi int, dst []uint64)
}

// DensePlanes is the materialized rating source: a wrapper over bit-sliced
// truth rows, the reference oracle for the lazy representation.
type DensePlanes struct {
	rows []bitvec.Planes
}

// NewDensePlanes wraps materialized rating rows as a RatingSource. It
// panics unless every row has the first row's shape (objects × planes).
func NewDensePlanes(rows []bitvec.Planes) *DensePlanes {
	for p, row := range rows {
		if row.Len() != rows[0].Len() || row.Bits() != rows[0].Bits() {
			panic(fmt.Sprintf("multival: truth row %d has shape %d×%d, want %d×%d",
				p, row.Len(), row.Bits(), rows[0].Len(), rows[0].Bits()))
		}
	}
	return &DensePlanes{rows: rows}
}

// Players returns the number of rows.
func (d *DensePlanes) Players() int { return len(d.rows) }

// Objects returns the row length (0 when empty).
func (d *DensePlanes) Objects() int {
	if len(d.rows) == 0 {
		return 0
	}
	return d.rows[0].Len()
}

// Bits returns the planes per rating (0 when empty).
func (d *DensePlanes) Bits() int {
	if len(d.rows) == 0 {
		return 0
	}
	return d.rows[0].Bits()
}

// Rating returns the rating of (p, o).
func (d *DensePlanes) Rating(p, o int) int { return d.rows[p].Get(o) }

// PlaneWords copies row p's plane words at wi.
func (d *DensePlanes) PlaneWords(p, wi int, dst []uint64) {
	row := d.rows[p]
	for l := 0; l < row.Bits(); l++ {
		dst[l] = row.PlaneWord(l, wi)
	}
}

// LazyPlanes is the on-demand rating source: materialized cluster centers
// plus per-player sorted sparse edits. A player's row is its center's
// plane words with its edits' ratings overlaid.
type LazyPlanes struct {
	n, m, k   int
	centers   []bitvec.Planes
	clusterOf []int
	// Player p's edits are editObj/editVal[editStart[p]:editStart[p+1]],
	// object-ascending: the FINAL rating of each object p's edit walk
	// touched.
	editStart []int32
	editObj   []int32
	editVal   []int32
}

// Players returns n; Objects returns m; Bits the planes per rating.
func (lz *LazyPlanes) Players() int { return lz.n }

// Objects returns m.
func (lz *LazyPlanes) Objects() int { return lz.m }

// Bits returns the planes per rating.
func (lz *LazyPlanes) Bits() int { return lz.k }

// edits returns player p's edit range [lo, hi) clipped to objects
// [from, to): a binary search on the object-ascending editObj.
func (lz *LazyPlanes) edits(p, from, to int) (lo, hi int) {
	lo, hi = int(lz.editStart[p]), int(lz.editStart[p+1])
	objs := lz.editObj[lo:hi]
	first, _ := slices.BinarySearch(objs, int32(from))
	last, _ := slices.BinarySearch(objs[first:], int32(to))
	return lo + first, lo + first + last
}

// Rating returns the rating of (p, o): the player's edit override if the
// walk touched o, its center's cell otherwise.
func (lz *LazyPlanes) Rating(p, o int) int {
	if lo, hi := lz.edits(p, o, o+1); lo < hi {
		return int(lz.editVal[lo])
	}
	return lz.centers[lz.clusterOf[p]].Get(o)
}

// PlaneWords writes player p's plane words at wi: the center's words with
// the player's in-word edits spliced in bit by bit.
func (lz *LazyPlanes) PlaneWords(p, wi int, dst []uint64) {
	row := lz.centers[lz.clusterOf[p]]
	for l := 0; l < lz.k; l++ {
		dst[l] = row.PlaneWord(l, wi)
	}
	lo, hi := lz.edits(p, wi*64, wi*64+64)
	for i := lo; i < hi; i++ {
		b := uint(lz.editObj[i]) % 64
		v := uint64(lz.editVal[i])
		for l := 0; l < lz.k; l++ {
			dst[l] = dst[l]&^(1<<b) | (v>>uint(l)&1)<<b
		}
	}
}

// LazyGenerate is the lazy Generate: identical draws, identical ratings,
// O(centers + edits) memory. It returns the source and the cluster
// assignment, mirroring Generate's ([]bitvec.Planes, []int).
func LazyGenerate(rng *xrand.Stream, n, m, clusterSize, diameter, scale int) (*LazyPlanes, []int) {
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
	lz := &LazyPlanes{
		n: n, m: m, k: k,
		centers:   newPlanes(numClusters, m, k),
		clusterOf: make([]int, n),
	}
	// Center draws are identical to Generate's (Intn per cell, in order).
	for c := range lz.centers {
		row := lz.centers[c]
		for o := 0; o < m; o++ {
			row.Set(o, rng.Intn(scale+1))
		}
	}
	perm := rng.Perm(n)
	type edit struct {
		p, o, v int32
	}
	var ents []edit
	overlay := make(map[int]int, diameter/2+1)
	for rank, p := range perm {
		c := rank / clusterSize
		if c >= numClusters {
			c = numClusters - 1
		}
		lz.clusterOf[p] = c
		// Replay the dense ±1 edit walk against an overlay instead of a
		// materialized row: Get reads the walk's CURRENT value, so draws,
		// accept/reject decisions, and final ratings all match Generate.
		clear(overlay)
		center := lz.centers[c]
		budget := diameter / 2
		for budget > 0 {
			o := rng.Intn(m)
			delta := 1
			if rng.Bool() {
				delta = -1
			}
			cur, touched := overlay[o]
			if !touched {
				cur = center.Get(o)
			}
			if nv := cur + delta; nv >= 0 && nv <= scale {
				overlay[o] = nv
				budget--
			}
		}
		objs := make([]int, 0, len(overlay))
		for o := range overlay {
			objs = append(objs, o)
		}
		sort.Ints(objs)
		for _, o := range objs {
			ents = append(ents, edit{p: int32(p), o: int32(o), v: int32(overlay[o])})
		}
	}
	// Counting-sort the per-player groups into flat object-ascending ranges.
	start := make([]int32, n+1)
	for _, e := range ents {
		start[e.p+1]++
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	cursor := append([]int32(nil), start[:n]...)
	objsFlat := make([]int32, len(ents))
	valsFlat := make([]int32, len(ents))
	for _, e := range ents {
		pos := cursor[e.p]
		cursor[e.p]++
		objsFlat[pos], valsFlat[pos] = e.o, e.v
	}
	lz.editStart, lz.editObj, lz.editVal = start, objsFlat, valsFlat
	return lz, lz.clusterOf
}

// materializeRow builds player p's full bit-sliced row from any source.
func materializeRow(src RatingSource, p int) bitvec.Planes {
	m, k := src.Objects(), src.Bits()
	row := bitvec.NewPlanes(m, k)
	dst := make([]uint64, k)
	for wi := 0; wi < (m+63)/64; wi++ {
		src.PlaneWords(p, wi, dst)
		for l := 0; l < k; l++ {
			row.SetPlaneWord(l, wi, dst[l])
		}
	}
	return row
}
