package cluster

import (
	"testing"

	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

// BenchmarkPeel times the greedy peel (Build) on both graph
// representations and two qualification regimes. "planted" peels 128
// clusters — the cursor's best case, since it row-scans only the seeds it
// commits. "scan" sets minSize just past every degree, making the peel one
// full qualification sweep over all n rows. Sub-benchmark names match the
// greedy rows of the historical BENCH_PR10.json snapshot.
func BenchmarkPeel(b *testing.B) {
	const n, m, size, d = 4096, 512, 32, 4
	in := prefgen.DiameterClusters(xrand.New(4096), n, m, size, d)
	threshold := 2 * d
	graphs := map[string]Graph{
		"dense":  BuildGraph(in.Truth, threshold),
		"sparse": sparseExact(in.Truth, threshold),
	}
	regimes := map[string]int{"planted": size, "scan": size + 2}
	for name, g := range graphs {
		for regime, minSize := range regimes {
			b.Run(name+"/"+regime+"/serial", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Build(g, minSize)
				}
			})
		}
	}
}

// BenchmarkCSRFinish compares the serial in-place CSR row compaction
// against the parallel finish on a duplicate-heavy edge stream.
func BenchmarkCSRFinish(b *testing.B) {
	const n = 8192
	rng := xrand.New(77)
	var edges [][2]int32
	for i := 0; i < 24*n; i++ {
		p := int32(rng.Intn(n))
		q := int32(rng.Intn(n))
		if p == q {
			continue
		}
		edges = append(edges, [2]int32{p, q}, [2]int32{q, p})
	}
	exec := par.Parallel()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bl := newCSRBuilder(n)
			bl.flush(edges)
			bl.build()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bl := newCSRBuilder(n)
			bl.flush(edges)
			bl.buildOn(exec)
		}
	})
}
