package cluster

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"collabscore/internal/bitvec"
	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

// graphsEqual compares through the Graph interface so dense and sparse
// representations of the same edge set compare equal.
func graphsEqual(a, b Graph) bool {
	if a.N() != b.N() {
		return false
	}
	for p := 0; p < a.N(); p++ {
		if a.Degree(p) != b.Degree(p) || !slices.Equal(neighbors(a, p), neighbors(b, p)) {
			return false
		}
	}
	return true
}

func TestParseIndexSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want IndexSpec
	}{
		{"", IndexSpec{}},
		{"exact", IndexSpec{}},
		{"lsh", IndexSpec{Kind: "lsh"}},
		{"lsh:8:6", IndexSpec{Kind: "lsh", Bands: 8, Rows: 6}},
		{"lsh:32:16", IndexSpec{Kind: "lsh", Bands: 32, Rows: 16}},
		{"exact+dense", IndexSpec{Graph: "dense"}},
		{"exact+sparse", IndexSpec{Graph: "sparse"}},
		{"+sparse", IndexSpec{Graph: "sparse"}},
		{"exact+auto", IndexSpec{}},
		{"lsh+sparse", IndexSpec{Kind: "lsh", Graph: "sparse"}},
		{"lsh:8:6+dense", IndexSpec{Kind: "lsh", Bands: 8, Rows: 6, Graph: "dense"}},
		{"lsh+auto", IndexSpec{Kind: "lsh"}},
	} {
		got, err := ParseIndexSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseIndexSpec(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("ParseIndexSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		// String round-trips back to the same spec.
		again, err := ParseIndexSpec(got.String())
		if err != nil || again != got {
			t.Fatalf("round trip %q → %q → %+v (%v)", tc.in, got.String(), again, err)
		}
	}
	for _, bad := range []string{
		"lsh:0:4", "lsh:4:0", "lsh:-1:4", "lsh:4", "lsh:4:4:4",
		"lsh:a:4", "lsh:4:b", "banding", "exact:1:2", "LSH",
		"exact+csr", "lsh+", "+", "lsh+sparse+dense", "auto",
	} {
		if _, err := ParseIndexSpec(bad); err == nil {
			t.Fatalf("ParseIndexSpec(%q) accepted", bad)
		}
	}
	if !(IndexSpec{}).IsExact() || !(IndexSpec{Kind: "exact"}).IsExact() {
		t.Fatal("exact specs not IsExact")
	}
	if (IndexSpec{Kind: "lsh"}).IsExact() {
		t.Fatal("lsh spec IsExact")
	}
	if got := (IndexSpec{}).String(); got != "exact" {
		t.Fatalf("zero spec String = %q", got)
	}
}

// TestLSHSubsetOfExact is the no-false-positives property: every LSH edge
// must exist in the exact oracle's graph, on arbitrary (unclustered)
// inputs — candidates are always verified by exact distance, so the index
// can only miss edges, never invent them.
func TestLSHSubsetOfExact(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(60)
		in := prefgen.Uniform(rng, n, 96)
		threshold := rng.Intn(50)
		exact := BuildGraph(in.Truth, threshold)
		lsh := LSH{}.BuildGraph(nil, in.Truth, threshold, xrand.New(seed^0x1D), RepAuto)
		for p := 0; p < n; p++ {
			ex := neighbors(exact, p)
			for _, q := range neighbors(lsh, p) {
				if !slices.Contains(ex, q) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestLSHRecallPlanted pins the acceptance property: on planted worlds at
// paper-regime thresholds the banding index recovers ≥ 99.9% of the exact
// oracle's edges, and the end-to-end clustering built from its graph is
// equivalent to the oracle's.
func TestLSHRecallPlanted(t *testing.T) {
	const n, m, size, d = 256, 512, 32, 8
	for _, seed := range []uint64{1, 2, 3, 42, 2010} {
		rng := xrand.New(seed)
		in := prefgen.DiameterClusters(rng, n, m, size, d)
		threshold := 2 * d
		exact := BuildGraph(in.Truth, threshold)
		lsh := LSH{}.BuildGraph(nil, in.Truth, threshold, xrand.New(seed), RepAuto)
		edges, found := 0, 0
		for p := 0; p < n; p++ {
			ex := neighbors(exact, p)
			edges += len(ex)
			for _, q := range neighbors(lsh, p) {
				if !slices.Contains(ex, q) {
					t.Fatalf("seed %d: false positive edge (%d,%d)", seed, p, q)
				}
				found++
			}
		}
		if edges == 0 {
			t.Fatalf("seed %d: planted world produced no edges", seed)
		}
		if recall := float64(found) / float64(edges); recall < 0.999 {
			t.Fatalf("seed %d: recall %.6f < 0.999 (%d/%d edges)", seed, recall, found, edges)
		}
		// End-to-end equivalence of the clustering built on each graph.
		want := Build(exact, size)
		got := Build(lsh, size)
		if !reflect.DeepEqual(got.Clusters, want.Clusters) || !reflect.DeepEqual(got.Of, want.Of) {
			t.Fatalf("seed %d: clustering from LSH graph differs from oracle", seed)
		}
	}
}

// TestLSHDeterministicGivenSeed: the same seed yields the same graph call
// after call; custom band/row shapes run through the same machinery.
func TestLSHDeterministicGivenSeed(t *testing.T) {
	rng := xrand.New(77)
	in := prefgen.DiameterClusters(rng, 128, 256, 16, 4)
	for _, ix := range []LSH{{}, {Bands: 8, Rows: 6}, {Bands: 32, Rows: 4}} {
		a := ix.BuildGraph(nil, in.Truth, 8, xrand.New(5), RepAuto)
		b := ix.BuildGraph(nil, in.Truth, 8, xrand.New(5), RepAuto)
		if !graphsEqual(a, b) {
			t.Fatalf("LSH %+v not deterministic for fixed seed", ix)
		}
	}
}

// TestLSHAllIdentical is the worst case called out in the issue: identical
// vectors put every player in one giant bucket, and the index must still
// return the exact (complete) graph.
func TestLSHAllIdentical(t *testing.T) {
	const n = 70
	z := make([]bitvec.Vector, n)
	for p := range z {
		v := bitvec.New(100)
		v.Set(3, true)
		v.Set(64, true)
		z[p] = v
	}
	for _, threshold := range []int{0, 5} {
		g := LSH{}.BuildGraph(nil, z, threshold, xrand.New(1), RepAuto)
		for p := 0; p < n; p++ {
			var want []int
			for q := 0; q < n; q++ {
				if q != p {
					want = append(want, q)
				}
			}
			if got := neighbors(g, p); !slices.Equal(got, want) {
				t.Fatalf("threshold %d: identical vectors, neighbors(%d) = %v", threshold, p, got)
			}
		}
	}
}

// TestLSHTiny: n ∈ {0, 1} and empty vectors must not panic and must have
// no edges.
func TestLSHTiny(t *testing.T) {
	if g := (LSH{}).BuildGraph(nil, nil, 3, xrand.New(1), RepAuto); g.N() != 0 {
		t.Fatalf("empty input N = %d", g.N())
	}
	one := []bitvec.Vector{bitvec.FromBits([]int{1, 0, 1})}
	if g := (LSH{}).BuildGraph(nil, one, 3, xrand.New(1), RepAuto); g.N() != 1 || g.Degree(0) != 0 {
		t.Fatal("single player grew an edge")
	}
	// Zero-length vectors: all identical at distance 0.
	zl := []bitvec.Vector{bitvec.New(0), bitvec.New(0), bitvec.New(0)}
	g := LSH{}.BuildGraph(nil, zl, 0, xrand.New(1), RepAuto)
	if !slices.Equal(neighbors(g, 0), []int{1, 2}) || !slices.Equal(neighbors(g, 1), []int{0, 2}) {
		t.Fatal("zero-length vectors are at distance 0 and must be adjacent at threshold 0")
	}
}

// TestLSHThresholdZero: only exact duplicates connect, mirroring the exact
// sweep.
func TestLSHThresholdZero(t *testing.T) {
	z := []bitvec.Vector{
		bitvec.FromBits([]int{0, 0, 1}),
		bitvec.FromBits([]int{0, 0, 1}),
		bitvec.FromBits([]int{0, 1, 1}),
	}
	g := LSH{}.BuildGraph(nil, z, 0, xrand.New(3), RepAuto)
	exact := BuildGraph(z, 0)
	if !graphsEqual(g, exact) {
		t.Fatal("threshold-0 LSH graph differs from exact")
	}
	if !slices.Equal(neighbors(g, 0), []int{1}) || g.Degree(2) != 0 {
		t.Fatal("threshold-0 adjacency wrong")
	}
}
