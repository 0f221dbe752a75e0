package core

import (
	"testing"

	"collabscore/internal/board"
	"collabscore/internal/cluster"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// TestBoardTrafficRecorded: the work-sharing phase routes reports through
// the bulletin board, so a run with clusters must record writes and reads.
func TestBoardTrafficRecorded(t *testing.T) {
	const n, b, d = 512, 8, 32
	rng := xrand.New(31)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, n/b, d)
	w := world.New(in.Truth)
	pr := Scaled(n, b)
	pr.MinD, pr.MaxD = d, d
	res := Run(w, rng.Split(2), pr)
	if res.BoardWrites == 0 {
		t.Fatal("no board writes recorded")
	}
	if res.BoardReads == 0 {
		t.Fatal("no board reads recorded")
	}
	// Writes are bounded by redundancy · m · #clusters (≤ B+2 clusters).
	red := int64(pr.Redundancy(n))
	if res.BoardWrites > red*int64(n)*int64(b+2) {
		t.Fatalf("board writes %d exceed redundancy bound", res.BoardWrites)
	}
	// Per-iteration stats must sum to the totals.
	var sumW, sumR int64
	for _, it := range res.Iterations {
		sumW += it.BoardWrites
		sumR += it.BoardReads
	}
	if sumW != res.BoardWrites || sumR != res.BoardReads {
		t.Fatalf("iteration sums (%d,%d) != totals (%d,%d)", sumW, sumR, res.BoardWrites, res.BoardReads)
	}
}

// TestFullSRIterationHasNoBoardTraffic: the small-D easy case bypasses the
// work-sharing phase entirely.
func TestFullSRIterationHasNoBoardTraffic(t *testing.T) {
	const n, b = 256, 8
	rng := xrand.New(33)
	in := prefgen.IdenticalClusters(rng.Split(1), n, n, n/b)
	w := world.New(in.Truth)
	pr := Scaled(n, b)
	pr.MinD, pr.MaxD = 1, 1 // forced into the full-SR path
	res := Run(w, rng.Split(2), pr)
	if !res.Iterations[0].UsedFullSR {
		t.Fatal("expected the full-SR path")
	}
	if res.BoardWrites != 0 {
		t.Fatalf("full-SR path recorded %d board writes", res.BoardWrites)
	}
}

// TestShareWritesDistinctPicks: a member picked more than once for one
// object is assigned it once, so a share's board writes equal its distinct
// (member, object) picks, recomputed here from the same coins.
func TestShareWritesDistinctPicks(t *testing.T) {
	const n, b = 96, 8
	w := byzWorld(77, n, b, false)
	cl := &cluster.Clustering{Clusters: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7, 8, 9, 10, 11}}}
	red := Scaled(n, b).Redundancy(n)
	bd := board.New(n, w.M())
	workShare(BinaryDomain(world.NewRun(w)), bd, cl, xrand.New(5).Split(0x5C), red, nil)
	var distinct, picks int64
	for j, members := range cl.Clusters {
		cs := xrand.New(5).Split(0x5C).SplitValue(uint64(j))
		for o := 0; o < w.M(); o++ {
			rng := cs.SplitValue(uint64(o))
			seen := map[int]bool{}
			for range red {
				seen[rng.Intn(len(members))] = true
				picks++
			}
			distinct += int64(len(seen))
		}
	}
	if distinct == picks {
		t.Fatal("no member was picked twice for an object; the check is vacuous")
	}
	if got := bd.WriteCount(); got != distinct {
		t.Fatalf("board writes %d, want %d distinct picks (of %d picks)", got, distinct, picks)
	}
}
