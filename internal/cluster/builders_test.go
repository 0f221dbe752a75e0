package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

// neighbors lists p's neighbors in VisitNeighbors order — the one way the
// tests read a graph's adjacency.
func neighbors(g Graph, p int) []int {
	var out []int
	g.VisitNeighbors(p, func(q int) bool {
		out = append(out, q)
		return true
	})
	return out
}

// bruteNeighbors is the double-loop oracle: row p lists every q ≠ p with
// within(p, q), in increasing id order.
func bruteNeighbors(n int, within func(p, q int) bool) [][]int {
	rows := make([][]int, n)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if q != p && within(p, q) {
				rows[p] = append(rows[p], q)
			}
		}
	}
	return rows
}

// checkGraph compares every Graph query against the adjacency rows want:
// N, Degree, the VisitNeighbors order, and the live queries under an
// alive set holding every other player.
func checkGraph(t *testing.T, name string, g Graph, want [][]int) {
	t.Helper()
	n := len(want)
	if g.N() != n {
		t.Fatalf("%s: N = %d, want %d", name, g.N(), n)
	}
	alive := bitvec.New(n)
	for p := 0; p < n; p += 2 {
		alive.Set(p, true)
	}
	for p, row := range want {
		if g.Degree(p) != len(row) {
			t.Fatalf("%s: Degree(%d) = %d, want %d", name, p, g.Degree(p), len(row))
		}
		if got := neighbors(g, p); !slices.Equal(got, row) {
			t.Fatalf("%s: neighbors(%d) = %v, want %v", name, p, got, row)
		}
		live := []int{-1} // append semantics: the prefix survives
		for _, q := range row {
			if alive.Get(q) {
				live = append(live, q)
			}
		}
		if got := g.LiveDegree(p, alive); got != len(live)-1 {
			t.Fatalf("%s: LiveDegree(%d) = %d, want %d", name, p, got, len(live)-1)
		}
		if got := g.AppendLiveNeighbors([]int{-1}, p, alive); !slices.Equal(got, live) {
			t.Fatalf("%s: AppendLiveNeighbors(%d) = %v, want %v", name, p, got, live)
		}
	}
}

// lineWorld places player p at point pos[p] of a line, so that both
// distances are |pos[p] − pos[q]|: a thermometer vector (the first pos[p]
// bits set) for Hamming, and a row filling pos[p] units into values of
// capacity scale, one value after another, for L1. Buckets of nearby
// points then hold edges between them, so the pivot bounds must accept,
// reject and defer pairs that cross buckets.
func lineWorld(pos []int) ([]bitvec.Vector, []bitvec.Planes) {
	const scale = 7
	top := slices.Max(append([]int{0}, pos...))
	z := make([]bitvec.Vector, len(pos))
	rows := make([]bitvec.Planes, len(pos))
	for p, x := range pos {
		z[p] = bitvec.New(top + 1)
		rows[p] = bitvec.PlanesForScale(top/scale+1, scale)
		for i := 0; i < x; i++ {
			z[p].Set(i, true)
		}
		for o := 0; o < rows[p].Len(); o++ {
			rows[p].Set(o, min(scale, max(0, x-o*scale)))
		}
	}
	return z, rows
}

// linePositions returns the positions at(0), …, at(n−1).
func linePositions(n int, at func(p int) int) []int {
	pos := make([]int, n)
	for p := range pos {
		pos[p] = at(p)
	}
	return pos
}

// linePoints is a world of points on a line (lineWorld) with the threshold
// it is swept at.
type linePoints struct {
	name      string
	pos       []int
	threshold int
}

// lineWorlds lists the line worlds the pivot-stage tests share.
func lineWorlds() []linePoints {
	return []linePoints{
		// Ids scattered along the line; edges cross buckets, and some
		// pairs need the exact test.
		{"line", linePositions(65, func(p int) int { return p * 37 % 65 * 3 }), 12},
		// Two buckets of radius 10 whose pivots are 30 apart: their edge
		// (10, 20) survives the bucket skip only through both radii.
		{"chain", linePositions(12, func(p int) int { return p % 4 * 10 }), 10},
		// Three distinct rows at threshold 0: radius-0 buckets of 100
		// players, more than one tile each.
		{"duplicates", linePositions(300, func(p int) int { return p * 7 % 3 * 9 }), 0},
		// The farthest points tie in every round of the pivot choice.
		{"tied", linePositions(130, func(p int) int { return p % 5 * 20 }), 5},
		{"tied-wide", linePositions(130, func(p int) int { return p % 5 * 20 }), 25},
		// Sixteen points far apart need exactly maxPivots pivots.
		{"sixteen", linePositions(80, func(p int) int { return p % maxPivots * 30 }), 10},
		// One point more than maxPivots can cover joins a bucket 30 from
		// its pivot, past the threshold.
		{"seventeen", linePositions(3*(maxPivots+1), func(p int) int { return p % (maxPivots + 1) * 30 }), 10},
	}
}

// TestGraphBuildersAgree is the one table every graph producer answers
// to: the exact Hamming sweep (through IndexSpec.BuildGraph), the L1 sweep
// (BuildGraphL1On) and the LSH banding index, each into both
// representations under every schedule. Exact and L1 must equal the
// brute-force double loop; LSH must equal its own serial dense graph and
// be a subset of exact. Sizes cover empty and single-player graphs,
// partial blocks, exact block boundaries and multi-block triangles; the
// "identical" rows at threshold 0 give 32,640 edges, more than
// sinkFlushAt, so one worker's buffer flushes mid-stream.
//
// The worlds also stress the pivot stage: the line worlds (lineWorlds)
// put edges across pivot buckets, duplicate rows at threshold 0, tied
// farthest-first choices and exactly maxPivots pivots; the larger uniform
// rows, 17 points far apart and planted clusters with 1, 2 or 13 outliers
// (outlierWorld) need more than maxPivots pivots, so some buckets keep a
// radius above the threshold.
func TestGraphBuildersAgree(t *testing.T) {
	type hammingWorld struct {
		name      string
		z         []bitvec.Vector
		threshold int
	}
	type l1World struct {
		name      string
		rows      []bitvec.Planes
		threshold int
	}
	var hw []hammingWorld
	var lw []l1World
	for _, n := range []int{0, 1, 2, 9, 63, 64, 65, 70, 128, 130, 257} {
		rng := xrand.New(uint64(n))
		// Near the median distance of 96-bit vectors: a dense, messy graph.
		hw = append(hw, hammingWorld{fmt.Sprintf("uniform/n=%d", n), prefgen.Uniform(rng, n, 96).Truth, 40})
		if n >= 2 {
			in := prefgen.DiameterClusters(rng, n, 192, max(2, n/4), 4)
			hw = append(hw, hammingWorld{fmt.Sprintf("planted/n=%d", n), in.Truth, 8})
		}
		const m, scale = 40, 7
		rows := make([]bitvec.Planes, n)
		for p := range rows {
			rows[p] = bitvec.PlanesForScale(m, scale)
			for o := 0; o < m; o++ {
				rows[p].Set(o, rng.Intn(scale+1))
			}
		}
		lw = append(lw, l1World{fmt.Sprintf("uniform/n=%d", n), rows, m * scale / 8})
	}
	for _, n := range []int{0, 1, 2, 65} {
		// Clusters of 16 within L1 6 of each other, about 75 apart.
		rows := plantedRatingRows(xrand.New(uint64(n)^0x71), n, 40, 16, 3, 7)
		lw = append(lw, l1World{fmt.Sprintf("planted/n=%d", n), rows, 12})
	}
	for _, k := range []int{1, 2, 13} {
		z, rows := outlierWorld(8, k)
		hw = append(hw, hammingWorld{fmt.Sprintf("outliers=%d", k), z, 8})
		lw = append(lw, l1World{fmt.Sprintf("outliers=%d", k), rows, 12})
	}
	const big = 256 // big·(big−1)/2 = 32,640 edges > sinkFlushAt
	same := make([]bitvec.Vector, big)
	sameRows := make([]bitvec.Planes, big)
	for p := range same {
		same[p] = bitvec.FromBits([]int{1, 0, 1, 1})
		sameRows[p] = bitvec.PlanesForScale(8, 5)
		sameRows[p].Set(3, 4)
	}
	hw = append(hw, hammingWorld{"identical", same, 0})
	lw = append(lw, l1World{"identical", sameRows, 0})
	for _, w := range lineWorlds() {
		z, rows := lineWorld(w.pos)
		hw = append(hw, hammingWorld{w.name, z, w.threshold})
		lw = append(lw, l1World{w.name, rows, w.threshold})
	}

	reps := map[string]GraphRep{"dense": RepDense, "sparse": RepSparse}
	checkType := func(name string, g Graph, rep GraphRep) {
		t.Helper()
		_, dense := g.(*BitGraph)
		_, sparse := g.(*CSRGraph)
		if (rep == RepDense && !dense) || (rep == RepSparse && !sparse) {
			t.Fatalf("%s: built %T", name, g)
		}
	}
	for _, w := range hw {
		n := len(w.z)
		exact := bruteNeighbors(n, func(p, q int) bool { return w.z[p].Hamming(w.z[q]) <= w.threshold })
		rng := func() *xrand.Stream { return xrand.New(uint64(n) ^ 0x5D) }
		lshSpec := IndexSpec{Kind: "lsh"}
		ref := lshSpec.BuildGraph(par.Serial(), w.z, w.threshold, rng())
		lshRows := make([][]int, n)
		for p := range lshRows {
			lshRows[p] = neighbors(ref, p)
			for _, q := range lshRows[p] {
				if !slices.Contains(exact[p], q) {
					t.Fatalf("lsh %s: edge (%d,%d) not in the exact graph", w.name, p, q)
				}
			}
		}
		for gname, rep := range reps {
			for ename, exec := range testExecs() {
				name := fmt.Sprintf("exact %s %s/%s", w.name, gname, ename)
				g := IndexSpec{Graph: gname}.BuildGraph(exec, w.z, w.threshold, nil)
				checkType(name, g, rep)
				checkGraph(t, name, g, exact)

				name = fmt.Sprintf("lsh %s %s/%s", w.name, gname, ename)
				g = IndexSpec{Kind: "lsh", Graph: gname}.BuildGraph(exec, w.z, w.threshold, rng())
				checkType(name, g, rep)
				checkGraph(t, name, g, lshRows)
			}
		}
	}
	for _, w := range lw {
		want := bruteNeighbors(len(w.rows), func(p, q int) bool { return w.rows[p].L1(w.rows[q]) <= w.threshold })
		for gname, rep := range reps {
			for ename, exec := range testExecs() {
				name := fmt.Sprintf("l1 %s %s/%s", w.name, gname, ename)
				g := BuildGraphL1On(exec, w.rows, w.threshold, rep)
				checkType(name, g, rep)
				checkGraph(t, name, g, want)
			}
		}
	}

	// An unknown kind is a programming error and panics naming it.
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"bogus"`) {
				t.Fatalf("IndexSpec{Kind: \"bogus\"}: recovered %v, want a panic naming the kind", r)
			}
		}()
		IndexSpec{Kind: "bogus"}.BuildGraph(nil, same, 0, xrand.New(1))
	}()
}
