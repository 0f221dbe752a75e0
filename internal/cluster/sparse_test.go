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

// sparseExact builds the CSR graph through the exact sweep — the sparse
// counterpart of BuildGraph for tests.
func sparseExact(z []bitvec.Vector, threshold int) *CSRGraph {
	return IndexSpec{Graph: "sparse"}.BuildGraph(nil, z, threshold, nil).(*CSRGraph)
}

// TestGraphRepPick pins the auto rule: dense below the cutoff, sparse at
// or above it, and forced reps ignore n.
func TestGraphRepPick(t *testing.T) {
	for _, tc := range []struct {
		rep  GraphRep
		n    int
		want GraphRep
	}{
		{RepAuto, 0, RepDense},
		{RepAuto, AutoSparseCutoff - 1, RepDense},
		{RepAuto, AutoSparseCutoff, RepSparse},
		{RepAuto, AutoSparseCutoff * 4, RepSparse},
		{RepDense, AutoSparseCutoff * 4, RepDense},
		{RepSparse, 1, RepSparse},
	} {
		if got := tc.rep.pick(tc.n); got != tc.want {
			t.Fatalf("pick(%v, n=%d) = %v, want %v", tc.rep, tc.n, got, tc.want)
		}
	}
	for _, tc := range []struct {
		sp   IndexSpec
		want GraphRep
	}{
		{IndexSpec{}, RepAuto},
		{IndexSpec{Graph: "auto"}, RepAuto},
		{IndexSpec{Graph: "dense"}, RepDense},
		{IndexSpec{Graph: "sparse"}, RepSparse},
	} {
		if got := tc.sp.Rep(); got != tc.want {
			t.Fatalf("Rep(%+v) = %v, want %v", tc.sp, got, tc.want)
		}
	}
}

// TestSparseMatchesDenseQuick is the representation-equivalence property:
// on random worlds the CSR graph must answer N, Degree, VisitNeighbors,
// LiveDegree and AppendLiveNeighbors exactly like the dense oracle over
// the same edge set.
func TestSparseMatchesDenseQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.Intn(80) // includes 0 and 1
		in := prefgen.Uniform(rng, n, 96)
		threshold := rng.Intn(50)
		dense := BuildGraph(in.Truth, threshold)
		sparse := sparseExact(in.Truth, threshold)
		if sparse.N() != dense.N() {
			return false
		}
		// A random alive set exercises the live queries mid-peel.
		alive := bitvec.New(n)
		for p := 0; p < n; p++ {
			alive.Set(p, rng.Intn(2) == 0)
		}
		dst := []int{-1} // append semantics: existing prefix preserved
		for p := 0; p < n; p++ {
			if sparse.Degree(p) != dense.Degree(p) {
				return false
			}
			if !slices.Equal(neighbors(sparse, p), neighbors(dense, p)) {
				return false
			}
			if sparse.LiveDegree(p, alive) != dense.LiveDegree(p, alive) {
				return false
			}
			a := dense.AppendLiveNeighbors(dst, p, alive)
			b := sparse.AppendLiveNeighbors(dst, p, alive)
			if !reflect.DeepEqual(a, b) || a[0] != -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseVisitEarlyStop: CSR iteration honors the early-stop contract.
func TestSparseVisitEarlyStop(t *testing.T) {
	rng := xrand.New(17)
	in := prefgen.Uniform(rng, 60, 96)
	g := sparseExact(in.Truth, 44)
	for p := 0; p < g.N(); p++ {
		count := 0
		g.VisitNeighbors(p, func(q int) bool {
			count++
			return false
		})
		want := 0
		if g.Degree(p) > 0 {
			want = 1
		}
		if count != want {
			t.Fatalf("early stop visited %d neighbors of %d, want %d", count, p, want)
		}
	}
}

// TestBuildMatchesAcrossRepresentations pins the tentpole contract at the
// cluster layer: Build over the sparse graph is byte-identical (cluster
// lists, member order, Of) to Build over the dense graph, on planted,
// uniform and messy near-threshold worlds — and both match the pre-seam
// reference implementation.
func TestBuildMatchesAcrossRepresentations(t *testing.T) {
	type world struct {
		name      string
		z         []bitvec.Vector
		threshold int
		minSize   int
	}
	var worlds []world
	worlds = append(worlds, world{"empty", nil, 12, 1}) // n = 0
	for _, n := range []int{1, 7, 64, 120, 257} {
		rng := xrand.New(uint64(n)*29 + 1)
		size := n / 4
		if size < 1 {
			size = 1
		}
		in := prefgen.DiameterClusters(rng, n, 300, size, 6)
		worlds = append(worlds, world{"planted", in.Truth, 12, size})
		u := prefgen.Uniform(rng, n, 96)
		worlds = append(worlds, world{"uniform", u.Truth, 48, 3})
		worlds = append(worlds, world{"sparse", u.Truth, 20, 2})
	}
	for _, w := range worlds {
		dense := BuildGraph(w.z, w.threshold)
		want := Build(dense, w.minSize)
		got := Build(sparseExact(w.z, w.threshold), w.minSize)
		if !reflect.DeepEqual(got.Clusters, want.Clusters) || !reflect.DeepEqual(got.Of, want.Of) {
			t.Fatalf("%s n=%d: sparse clustering differs from dense", w.name, len(w.z))
		}
		ref := buildReference(dense, w.minSize)
		if !reflect.DeepEqual(got.Clusters, ref.Clusters) || !reflect.DeepEqual(got.Of, ref.Of) {
			t.Fatalf("%s n=%d: sparse clustering differs from pre-seam reference", w.name, len(w.z))
		}
	}
}

// TestCSRBuilderDuplicateEdges: the builder must tolerate the duplicate
// emissions multi-band LSH collisions can produce — duplicates and
// emission order change nothing, and rows come out sorted and unique.
func TestCSRBuilderDuplicateEdges(t *testing.T) {
	b := newCSRBuilder(5)
	// Edge set {0-1, 0-3, 2-3}, emitted with duplicates, in both
	// orientations, out of order, across multiple flushes.
	b.flush([][2]int32{{0, 3}, {0, 1}, {0, 1}})
	b.flush([][2]int32{{3, 2}, {1, 0}, {0, 3}, {2, 3}})
	g := b.finish(nil).(*CSRGraph)
	wantRows := [][]int{{1, 3}, {0}, {3}, {0, 2}, {}}
	for p, want := range wantRows {
		if got := neighbors(g, p); !slices.Equal(got, want) {
			t.Fatalf("neighbors(%d) = %v, want %v", p, got, want)
		}
	}
	if g.Degree(0) != 2 || g.Degree(4) != 0 {
		t.Fatalf("degrees: %d, %d", g.Degree(0), g.Degree(4))
	}
	if int(g.off[5]) != 6 {
		t.Fatalf("compacted targets length %d, want 6 (duplicates kept?)", g.off[5])
	}
}

// TestCSRTiny: n = 0 and n = 1 sparse graphs behave like their dense
// counterparts, including through Build.
func TestCSRTiny(t *testing.T) {
	empty := sparseExact(nil, 3)
	if empty.N() != 0 {
		t.Fatalf("empty CSR N = %d", empty.N())
	}
	cl := Build(empty, 1)
	if len(cl.Clusters) != 0 || len(cl.Of) != 0 {
		t.Fatalf("empty clustering %+v", cl)
	}
	one := sparseExact([]bitvec.Vector{bitvec.FromBits([]int{1, 0})}, 1)
	if one.N() != 1 || one.Degree(0) != 0 {
		t.Fatalf("single-player CSR N=%d deg=%d", one.N(), one.Degree(0))
	}
	cl = Build(one, 1)
	if len(cl.Clusters) != 1 || cl.Of[0] != 0 {
		t.Fatalf("minSize 1: clusters %v, Of %v", cl.Clusters, cl.Of)
	}
	cl = Build(one, 2)
	if len(cl.Clusters) != 0 || cl.Of[0] != -1 {
		t.Fatalf("minSize 2: clusters %v, Of %v", cl.Clusters, cl.Of)
	}
	// The builder with no edges at all still yields a well-formed graph.
	if g := newCSRBuilder(3).finish(nil); g.N() != 3 || g.Degree(2) != 0 {
		t.Fatal("edge-free builder produced a malformed graph")
	}
}

// TestCSRIsolatedAttachmentFallback: isolated vertices stay unassigned
// through the sparse peel + attachment (Of[p] == -1), and leftover players
// with peeled neighbors do get attached — same shape as the dense
// TestIsolatedPlayers / TestLeftoverAttachment, run against CSR.
func TestCSRIsolatedAttachmentFallback(t *testing.T) {
	z := []bitvec.Vector{
		bitvec.FromBits([]int{0, 0, 0, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{1, 1, 1, 1, 1, 1, 1, 1}), // isolated
		bitvec.FromBits([]int{1, 1, 1, 1, 0, 0, 0, 0}), // isolated
	}
	g := sparseExact(z, 1)
	cl := Build(g, 4)
	if len(cl.Clusters) != 1 || len(cl.Clusters[0]) != 4 {
		t.Fatalf("clusters %v", cl.Clusters)
	}
	if got := cl.Unassigned(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("Unassigned = %v, want [4 5]", got)
	}
	for _, p := range []int{4, 5} {
		if cl.Of[p] != -1 {
			t.Fatalf("isolated player %d assigned to cluster %d", p, cl.Of[p])
		}
	}
	// Attachment fallback: one player at distance 1 from a peeled clique.
	z2 := []bitvec.Vector{
		bitvec.FromBits([]int{0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 0}),
		bitvec.FromBits([]int{1, 0, 0}),
	}
	cl = Build(sparseExact(z2, 1), 6)
	if len(cl.Unassigned()) != 0 {
		t.Fatalf("unassigned after attachment: %v", cl.Unassigned())
	}
}

// TestLiveQueriesAllocFree pins the satellite fix at the graph layer: the
// peel's per-candidate queries must not allocate, for either
// representation (the pre-fix dense path allocated a fresh n-bit vector
// per scanned candidate per round).
func TestLiveQueriesAllocFree(t *testing.T) {
	rng := xrand.New(23)
	in := prefgen.Uniform(rng, 256, 96)
	alive := bitvec.New(256)
	for p := 0; p < 256; p += 2 {
		alive.Set(p, true)
	}
	dst := make([]int, 0, 256)
	for name, g := range map[string]Graph{
		"dense":  BuildGraph(in.Truth, 44),
		"sparse": sparseExact(in.Truth, 44),
	} {
		sink := 0
		if allocs := testing.AllocsPerRun(100, func() {
			for p := 0; p < 256; p++ {
				sink += g.LiveDegree(p, alive)
			}
		}); allocs != 0 {
			t.Errorf("%s LiveDegree allocates %.1f per run", name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			for p := 0; p < 256; p++ {
				dst = g.AppendLiveNeighbors(dst[:0], p, alive)
			}
		}); allocs != 0 {
			t.Errorf("%s AppendLiveNeighbors allocates %.1f per run", name, allocs)
		}
		_ = sink
	}
}
