package collabscore_test

// BenchmarkBuildGraph is the neighbor-index × graph-representation scaling
// matrix (DESIGN.md §13/§16): the exact all-pairs sweep against the LSH
// banding index, each filling the dense bitset and the sparse CSR
// representation, on planted worlds at n ∈ {1024, 4096, 16384} with the
// paper-regime threshold (twice the planted diameter, far below
// cross-cluster distances), plus one exact dense row at n = 2048. The
// plain exact sweep is Θ(n²) Hamming tests, and its pivot stage decides
// them from Θ(n·pivots) distances where the clusters are few enough; the
// banding index verifies only same-bucket candidates (Θ(n·size) on
// planted worlds); the dense graph retains n² bits while CSR retains
// Θ(n·size) edges — the retained_B column is the memory matrix showing the
// quadratic/linear split, the acceptance story for ROADMAP item 2. See
// README.md for a recorded table.

import (
	"fmt"
	"runtime"
	"testing"

	"collabscore/internal/cluster"
	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

var benchBuildGraphSink cluster.Graph

func BenchmarkBuildGraph(b *testing.B) {
	const m, size, d = 1024, 256, 8
	specs := []cluster.IndexSpec{
		{Graph: "dense"},
		{Graph: "sparse"},
		{Kind: "lsh", Graph: "dense"},
		{Kind: "lsh", Graph: "sparse"},
	}
	type row struct {
		n    int
		spec cluster.IndexSpec
	}
	var rows []row
	for _, n := range []int{1024, 4096, 16384} {
		for _, spec := range specs {
			rows = append(rows, row{n, spec})
		}
	}
	// The shape of byz-exact-2k's graph: eight planted clusters, so the
	// exact sweep's pivot stage skips the cross-cluster pairs and accepts
	// the clusters' own. (n = 16384 plants 64 clusters, more than the
	// stage's pivot cap: each bucket then holds several clusters, and the
	// bounds through its pivot reject the pairs between them.)
	rows = append(rows, row{2048, specs[0]})
	worlds := map[int]*prefgen.Instance{}
	for _, r := range rows {
		n, spec := r.n, r.spec
		if worlds[n] == nil {
			worlds[n] = prefgen.DiameterClusters(xrand.New(uint64(n)), n, m, size, d)
		}
		in := worlds[n]
		b.Run(fmt.Sprintf("n=%d/%s", n, spec), func(b *testing.B) {
			build := func() cluster.Graph {
				return spec.BuildGraph(nil, in.Truth, 2*d, xrand.New(uint64(n)^0x5D))
			}

			// Retained live heap of one built graph, measured across
			// full collections — the number that scales n² bits dense
			// and Θ(edges) sparse.
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			held := build()
			runtime.GC()
			runtime.ReadMemStats(&after)
			retained := float64(0)
			if after.HeapAlloc > before.HeapAlloc {
				retained = float64(after.HeapAlloc - before.HeapAlloc)
			}
			runtime.KeepAlive(held)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchBuildGraphSink = build()
			}
			deg := 0
			for p := 0; p < benchBuildGraphSink.N(); p++ {
				deg += benchBuildGraphSink.Degree(p)
			}
			// ResetTimer clears ReportMetric values, so record them
			// after the timed loop.
			b.ReportMetric(float64(deg/2), "edges")
			b.ReportMetric(retained, "retained_B")
		})
	}
}
