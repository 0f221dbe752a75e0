package cluster

import (
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/xrand"
)

// plantedRatingRows returns n rows of m values in [0, scale] grouped into
// clusters of size players: each cluster draws a uniform center and each
// player moves edits random values of it by ±1, so same-cluster rows sit
// within L1 2·edits of each other and cross-cluster rows about 1.94·m apart.
func plantedRatingRows(rng *xrand.Stream, n, m, size, edits, scale int) []bitvec.Planes {
	rows := make([]bitvec.Planes, n)
	var center []int
	for p := range rows {
		if p%size == 0 {
			center = center[:0]
			for o := 0; o < m; o++ {
				center = append(center, rng.Intn(scale+1))
			}
		}
		rows[p] = bitvec.PlanesForScale(m, scale)
		for o, v := range center {
			rows[p].Set(o, v)
		}
		for e := 0; e < edits; e++ {
			o := rng.Intn(m)
			v := rows[p].Get(o) + 1
			if v > scale || (v > 1 && rng.Bool()) {
				v -= 2
			}
			rows[p].Set(o, v)
		}
	}
	return rows
}

// BenchmarkBuildGraphL1 times the L1 neighbor-graph sweep in the shape of
// the rating protocol's graph build at n = 2048: a 0..5 scale (k = 3
// planes), about 10 words of sampled objects per plane, and a threshold of
// about 76. The dense and sparse rows plant clusters of n/8 players, so the
// pivot stage skips the cross-cluster bucket pairs and its bounds accept
// the clusters' own pairs. The uniform row has no cluster structure: its
// maxPivots buckets keep radii far above the threshold, so the bounds
// decide few pairs, and the early exit rejects most of the rest after one
// word.
func BenchmarkBuildGraphL1(b *testing.B) {
	const n, m, scale, threshold = 2048, 620, 5, 76
	planted := plantedRatingRows(xrand.New(2048), n, m, n/8, 16, scale)
	uniform := plantedRatingRows(xrand.New(2048), n, m, 1, 0, scale)
	for _, c := range []struct {
		name string
		rows []bitvec.Planes
		rep  GraphRep
	}{{"dense", planted, RepDense}, {"sparse", planted, RepSparse}, {"uniform", uniform, RepDense}} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				BuildGraphL1On(par.Parallel(), c.rows, threshold, c.rep)
			}
		})
	}
}
