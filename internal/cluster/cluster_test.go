package cluster

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

// TestBuildGraphEdges: edges exactly at the threshold boundary.
func TestBuildGraphEdges(t *testing.T) {
	z := []bitvec.Vector{
		bitvec.FromBits([]int{0, 0, 0, 0}),
		bitvec.FromBits([]int{1, 0, 0, 0}), // distance 1 from z0
		bitvec.FromBits([]int{1, 1, 1, 0}), // distance 3 from z0
		bitvec.FromBits([]int{1, 1, 1, 1}), // distance 4 from z0
	}
	g := BuildGraph(z, 2)
	// Pairs at distance ≤ 2: 0–1 (1), 1–2 (2), 2–3 (1); 0–2 is at 3, and no
	// player neighbors itself.
	for p, want := range [][]int{{1}, {0, 2}, {1, 3}, {2}} {
		if got := neighbors(g, p); !slices.Equal(got, want) {
			t.Fatalf("neighbors(%d) = %v, want %v", p, got, want)
		}
	}
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
}

func TestGraphSymmetry(t *testing.T) {
	rng := xrand.New(1)
	in := prefgen.Uniform(rng, 40, 64)
	g := BuildGraph(in.Truth, 30)
	for p := 0; p < 40; p++ {
		for _, q := range neighbors(g, p) {
			if q == p || !slices.Contains(neighbors(g, q), p) {
				t.Fatalf("asymmetric edge (%d,%d)", p, q)
			}
		}
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	z := []bitvec.Vector{
		bitvec.FromBits([]int{0, 0}),
		bitvec.FromBits([]int{0, 0}),
		bitvec.FromBits([]int{1, 1}),
	}
	g := BuildGraph(z, 0)
	if g.Degree(0) != 1 {
		t.Fatalf("Degree(0) = %d, want 1", g.Degree(0))
	}
	nb := neighbors(g, 0)
	if len(nb) != 1 || nb[0] != 1 {
		t.Fatalf("neighbors(0) = %v", nb)
	}
	if g.Degree(2) != 0 {
		t.Fatalf("Degree(2) = %d", g.Degree(2))
	}
}

// TestBuildPlantedClusters: planted well-separated clusters are recovered
// as clusters of exactly the planted membership.
func TestBuildPlantedClusters(t *testing.T) {
	const n, m, size, d = 120, 400, 30, 4
	rng := xrand.New(2)
	in := prefgen.DiameterClusters(rng, n, m, size, d)
	g := BuildGraph(in.Truth, 2*d) // within-cluster ≤ d, cross ≈ m/2
	cl := Build(g, size)
	if len(cl.Clusters) != n/size {
		t.Fatalf("found %d clusters, want %d", len(cl.Clusters), n/size)
	}
	if len(cl.Unassigned()) != 0 {
		t.Fatalf("%d unassigned players", len(cl.Unassigned()))
	}
	// Each output cluster must be exactly one planted cluster.
	for j, members := range cl.Clusters {
		planted := in.ClusterOf[members[0]]
		for _, p := range members {
			if in.ClusterOf[p] != planted {
				t.Fatalf("cluster %d mixes planted clusters", j)
			}
		}
		if len(members) != size {
			t.Fatalf("cluster %d size %d, want %d", j, len(members), size)
		}
	}
}

// TestClusterInvariants is Lemma 9: every player in at most one cluster;
// clusters at least minSize; partition covers everyone with enough degree.
func TestClusterInvariants(t *testing.T) {
	const n, m = 100, 200
	rng := xrand.New(3)
	in := prefgen.DiameterClusters(rng, n, m, 25, 6)
	g := BuildGraph(in.Truth, 12)
	cl := Build(g, 25)
	seen := map[int]int{}
	for j, members := range cl.Clusters {
		if len(members) < 25 {
			t.Fatalf("cluster %d size %d < 25", j, len(members))
		}
		for _, p := range members {
			if prev, dup := seen[p]; dup {
				t.Fatalf("player %d in clusters %d and %d", p, prev, j)
			}
			seen[p] = j
			if cl.Of[p] != j {
				t.Fatalf("Of[%d] = %d, want %d", p, cl.Of[p], j)
			}
		}
	}
	for _, p := range cl.Unassigned() {
		if _, dup := seen[p]; dup {
			t.Fatal("unassigned player also in a cluster")
		}
	}
}

// TestLeftoverAttachment: a player below the degree threshold whose
// neighbors were peeled must be attached to a neighbor's cluster.
func TestLeftoverAttachment(t *testing.T) {
	// 5 identical players + 1 at distance 1 from them (threshold 1).
	z := []bitvec.Vector{
		bitvec.FromBits([]int{0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0}),
		bitvec.FromBits([]int{1, 0, 0}),
	}
	g := BuildGraph(z, 1)
	// minSize 5: peeling grabs the 5+1 at once actually (all within
	// threshold). Use minSize 6: first peel takes everyone adjacent to a
	// degree-5 player.
	cl := Build(g, 6)
	if len(cl.Unassigned()) != 0 {
		t.Fatalf("unassigned: %v", cl.Unassigned())
	}
}

func TestNoClustersWhenSparse(t *testing.T) {
	// All-far players: no edges, minSize 2 → no clusters, all unassigned.
	rng := xrand.New(4)
	in := prefgen.Uniform(rng, 20, 512)
	g := BuildGraph(in.Truth, 10)
	cl := Build(g, 2)
	if len(cl.Clusters) != 0 {
		t.Fatalf("sparse graph produced %d clusters", len(cl.Clusters))
	}
	if len(cl.Unassigned()) != 20 {
		t.Fatalf("unassigned = %d, want 20", len(cl.Unassigned()))
	}
}

func TestMinClusterSizeHelper(t *testing.T) {
	c := &Clustering{Clusters: [][]int{{1, 2, 3}, {4, 5}}}
	if c.MinClusterSize() != 2 {
		t.Fatalf("MinClusterSize = %d", c.MinClusterSize())
	}
	empty := &Clustering{}
	if empty.MinClusterSize() != 0 {
		t.Fatal("empty clustering min size should be 0")
	}
}

func TestDiameterHelper(t *testing.T) {
	vecs := []bitvec.Vector{
		bitvec.FromBits([]int{0, 0, 0}),
		bitvec.FromBits([]int{1, 1, 0}),
		bitvec.FromBits([]int{1, 1, 1}),
	}
	if d := Diameter(vecs, []int{0, 1, 2}); d != 3 {
		t.Fatalf("Diameter = %d, want 3", d)
	}
	if d := Diameter(vecs, []int{0}); d != 0 {
		t.Fatalf("singleton Diameter = %d", d)
	}
}

// TestDiameterSchedulesAgree: the parallel max-reduce must match the
// serial pairwise sweep.
func TestDiameterSchedulesAgree(t *testing.T) {
	rng := xrand.New(9)
	in := prefgen.Uniform(rng, 150, 200)
	members := make([]int, 150)
	for i := range members {
		members[i] = i
	}
	want := DiameterOn(par.Serial(), in.Truth, members)
	if got := DiameterOn(par.Parallel(), in.Truth, members); got != want {
		t.Fatalf("parallel Diameter %d, serial %d", got, want)
	}
	if got := DiameterOn(par.Fixed(3), in.Truth, members); got != want {
		t.Fatalf("fixed-width Diameter %d, serial %d", got, want)
	}
	if got := Diameter(in.Truth, nil); got != 0 {
		t.Fatalf("empty member Diameter = %d", got)
	}
}

// TestEdgeImpliesBoundedDistance is the property behind Lemma 8(ii): any
// edge in the graph connects players whose vectors are within threshold.
func TestEdgeImpliesBoundedDistance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 10 + rng.Intn(30)
		in := prefgen.Uniform(rng, n, 64)
		threshold := rng.Intn(40)
		g := BuildGraph(in.Truth, threshold)
		for p := 0; p < n; p++ {
			var want []int
			for q := 0; q < n; q++ {
				if q != p && in.Truth[p].Hamming(in.Truth[q]) <= threshold {
					want = append(want, q)
				}
			}
			if !slices.Equal(neighbors(g, p), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPeeledClusterDiameterBounded: members of any produced cluster are
// within 4 graph hops, hence within 4·threshold in vector distance.
func TestPeeledClusterDiameterBounded(t *testing.T) {
	const threshold = 8
	rng := xrand.New(5)
	in := prefgen.DiameterClusters(rng, 90, 300, 30, threshold)
	g := BuildGraph(in.Truth, threshold)
	cl := Build(g, 10)
	for j, members := range cl.Clusters {
		if d := Diameter(in.Truth, members); d > 4*threshold {
			t.Fatalf("cluster %d diameter %d > %d", j, d, 4*threshold)
		}
	}
}

// buildReference is the pre-cursor Build, kept verbatim as the comparison
// oracle for TestPeelCursorMatchesRescan: restart the candidate scan at
// p=0 after every peel and attach leftovers via materialized neighbor
// slices. The production Build must match it byte for byte.
func buildReference(g *BitGraph, minSize int) *Clustering {
	if minSize < 1 {
		minSize = 1
	}
	n := g.n
	alive := bitvec.New(n)
	for p := 0; p < n; p++ {
		alive.Set(p, true)
	}
	of := make([]int, n)
	for p := range of {
		of[p] = -1
	}
	var clusters [][]int
	for {
		found := -1
		for p := 0; p < n; p++ {
			if !alive.Get(p) {
				continue
			}
			if g.adj[p].And(alive).Count() >= minSize-1 {
				found = p
				break
			}
		}
		if found < 0 {
			break
		}
		members := append([]int{found}, g.adj[found].And(alive).OnesIndices()...)
		j := len(clusters)
		for _, q := range members {
			alive.Set(q, false)
			of[q] = j
		}
		clusters = append(clusters, members)
	}
	for p := 0; p < n; p++ {
		if !alive.Get(p) {
			continue
		}
		for _, q := range neighbors(g, p) {
			if of[q] >= 0 {
				of[p] = of[q]
				clusters[of[q]] = append(clusters[of[q]], p)
				alive.Set(p, false)
				break
			}
		}
	}
	return &Clustering{Clusters: clusters, Of: of}
}

// TestPeelCursorMatchesRescan pins the monotone-cursor peel: on planted,
// uniform and near-threshold graphs at several n, Build's output must be
// identical (cluster lists, member order, Of) to the rescan-from-0
// reference.
func TestPeelCursorMatchesRescan(t *testing.T) {
	type world struct {
		name      string
		z         []bitvec.Vector
		threshold int
		minSize   int
	}
	var worlds []world
	for _, n := range []int{1, 7, 64, 120, 257} {
		rng := xrand.New(uint64(n) * 13)
		size := n / 4
		if size < 1 {
			size = 1
		}
		in := prefgen.DiameterClusters(rng, n, 300, size, 6)
		worlds = append(worlds, world{"planted", in.Truth, 12, size})
		u := prefgen.Uniform(rng, n, 96)
		// Threshold near the median distance makes a dense, messy graph
		// where many seeds qualify and peel order matters.
		worlds = append(worlds, world{"uniform", u.Truth, 48, 3})
		worlds = append(worlds, world{"sparse", u.Truth, 20, 2})
	}
	for _, w := range worlds {
		g := BuildGraph(w.z, w.threshold)
		got := Build(g, w.minSize)
		want := buildReference(g, w.minSize)
		if !reflect.DeepEqual(got.Clusters, want.Clusters) || !reflect.DeepEqual(got.Of, want.Of) {
			t.Fatalf("%s n=%d: cursor peel differs from rescan reference", w.name, len(w.z))
		}
	}
}

// TestBuildGraphThresholdZero: at threshold 0 only exact duplicates share
// edges.
func TestBuildGraphThresholdZero(t *testing.T) {
	z := []bitvec.Vector{
		bitvec.FromBits([]int{0, 1, 0}),
		bitvec.FromBits([]int{0, 1, 0}),
		bitvec.FromBits([]int{0, 1, 1}),
	}
	g := BuildGraph(z, 0)
	if !slices.Equal(neighbors(g, 0), []int{1}) || !slices.Equal(neighbors(g, 1), []int{0}) || g.Degree(2) != 0 {
		t.Fatal("threshold-0 adjacency wrong")
	}
}

// TestSinglePlayer: n = 1 worlds cluster trivially at minSize 1 and leave
// the player unassigned at minSize 2.
func TestSinglePlayer(t *testing.T) {
	z := []bitvec.Vector{bitvec.FromBits([]int{1, 0})}
	g := BuildGraph(z, 1)
	if g.N() != 1 || g.Degree(0) != 0 {
		t.Fatalf("single-player graph N=%d deg=%d", g.N(), g.Degree(0))
	}
	cl := Build(g, 1)
	if len(cl.Clusters) != 1 || cl.Of[0] != 0 {
		t.Fatalf("minSize 1: clusters %v, Of %v", cl.Clusters, cl.Of)
	}
	cl = Build(g, 2)
	if len(cl.Clusters) != 0 || cl.Of[0] != -1 || len(cl.Unassigned()) != 1 {
		t.Fatalf("minSize 2: clusters %v, unassigned %v", cl.Clusters, cl.Unassigned())
	}
}

// TestIsolatedPlayers: players with no neighbors at all stay unassigned
// and never perturb MinClusterSize.
func TestIsolatedPlayers(t *testing.T) {
	// 4 identical players + 2 isolated ones far from everyone.
	z := []bitvec.Vector{
		bitvec.FromBits([]int{0, 0, 0, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{1, 1, 1, 1, 1, 1, 1, 1}),
		bitvec.FromBits([]int{1, 1, 1, 1, 0, 0, 0, 0}),
	}
	g := BuildGraph(z, 1)
	cl := Build(g, 4)
	if len(cl.Clusters) != 1 || len(cl.Clusters[0]) != 4 {
		t.Fatalf("clusters %v", cl.Clusters)
	}
	if got := cl.Unassigned(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("Unassigned = %v, want [4 5]", got)
	}
	if cl.MinClusterSize() != 4 {
		t.Fatalf("MinClusterSize = %d", cl.MinClusterSize())
	}
	for _, p := range []int{4, 5} {
		if cl.Of[p] != -1 {
			t.Fatalf("isolated player %d assigned to cluster %d", p, cl.Of[p])
		}
	}
}

// TestVisitNeighbors: word-walking iteration matches the adjacency bits
// and honors early stop.
func TestVisitNeighbors(t *testing.T) {
	rng := xrand.New(31)
	in := prefgen.Uniform(rng, 130, 96)
	g := BuildGraph(in.Truth, 44)
	for p := 0; p < g.N(); p++ {
		var got []int
		g.VisitNeighbors(p, func(q int) bool {
			got = append(got, q)
			return true
		})
		if want := g.adj[p].OnesIndices(); !slices.Equal(got, want) {
			t.Fatalf("VisitNeighbors(%d) = %v, adjacency bits %v", p, got, want)
		}
		// Early stop after the first neighbor.
		count := 0
		g.VisitNeighbors(p, func(q int) bool {
			count++
			return false
		})
		if want := minTestInt(1, len(got)); count != want {
			t.Fatalf("early stop visited %d neighbors, want %d", count, want)
		}
	}
}

func minTestInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
