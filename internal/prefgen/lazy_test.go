package prefgen

import (
	"fmt"
	"testing"
	"testing/quick"

	"collabscore/internal/bitvec"
	"collabscore/internal/xrand"
)

// lazyCase pairs a dense generator with its lazy twin for the oracle matrix.
type lazyCase struct {
	name  string
	dense func(rng *xrand.Stream, n, m int) *Instance
	lazy  func(rng *xrand.Stream, n, m int) *Instance
}

func lazyCases(clusterSize, numClusters, diameter int, alpha float64) []lazyCase {
	return []lazyCase{
		{
			name:  "uniform",
			dense: func(rng *xrand.Stream, n, m int) *Instance { return Uniform(rng, n, m) },
			lazy:  func(rng *xrand.Stream, n, m int) *Instance { return LazyUniform(rng, n, m) },
		},
		{
			name: fmt.Sprintf("cluster/size=%d,d=%d", clusterSize, diameter),
			dense: func(rng *xrand.Stream, n, m int) *Instance {
				return DiameterClusters(rng, n, m, clusterSize, diameter)
			},
			lazy: func(rng *xrand.Stream, n, m int) *Instance {
				return LazyDiameterClusters(rng, n, m, clusterSize, diameter, 0)
			},
		},
		{
			name: fmt.Sprintf("zipf/k=%d,d=%d", numClusters, diameter),
			dense: func(rng *xrand.Stream, n, m int) *Instance {
				return ZipfClusters(rng, n, m, numClusters, alpha, diameter)
			},
			lazy: func(rng *xrand.Stream, n, m int) *Instance {
				return LazyZipfClusters(rng, n, m, numClusters, alpha, diameter)
			},
		},
	}
}

// requireLazyMatchesDense pins the whole lazy contract against the dense
// oracle for one (generator, size, seed) point: identical planted
// metadata, every TruthWord and one-bit TruthBits equal to the materialized matrix,
// and identical post-generation stream state (so downstream split/draw
// sequences cannot diverge between representations).
func requireLazyMatchesDense(t *testing.T, c lazyCase, n, m int, seed uint64) {
	t.Helper()
	dRng, lRng := xrand.New(seed), xrand.New(seed)
	dense := c.dense(dRng, n, m)
	lz := c.lazy(lRng, n, m)

	if dRng.Uint64() != lRng.Uint64() {
		t.Fatalf("%s n=%d m=%d seed=%d: lazy generator left the stream in a different state", c.name, n, m, seed)
	}
	if lz.Truth != nil || lz.Centers != nil {
		t.Fatalf("%s: lazy instance materialized truth/centers", c.name)
	}
	if lz.N() != dense.N() || lz.M() != dense.M() {
		t.Fatalf("%s: dims (%d,%d), want (%d,%d)", c.name, lz.N(), lz.M(), dense.N(), dense.M())
	}
	if lz.PlantedDiameter != dense.PlantedDiameter {
		t.Fatalf("%s: PlantedDiameter %d, want %d", c.name, lz.PlantedDiameter, dense.PlantedDiameter)
	}
	for p := range dense.ClusterOf {
		if lz.ClusterOf[p] != dense.ClusterOf[p] {
			t.Fatalf("%s: ClusterOf[%d] = %d, want %d", c.name, p, lz.ClusterOf[p], dense.ClusterOf[p])
		}
	}

	src := lz.Source()
	if _, ok := src.(*Lazy); !ok {
		t.Fatalf("%s: Source() = %T, want *Lazy", c.name, src)
	}
	words := (m + 63) / 64
	for p := 0; p < n; p++ {
		want := dense.Truth[p]
		for wi := 0; wi < words; wi++ {
			if got := src.TruthWord(p, wi); got != want.Word(wi) {
				t.Fatalf("%s seed=%d: TruthWord(%d,%d) = %#x, want %#x", c.name, seed, p, wi, got, want.Word(wi))
			}
		}
		if !Materialize(src, p).Equal(want) {
			t.Fatalf("%s seed=%d: materialized row %d differs from dense", c.name, seed, p)
		}
	}
	// Spot-check the single-bit path (it hashes only the requested bit).
	probe := xrand.New(seed ^ 0xbeef)
	for i := 0; i < 200; i++ {
		p, o := probe.Intn(n), probe.Intn(m)
		if got := src.TruthBits(p, o/64, 1<<(uint(o)%64)) != 0; got != dense.Truth[p].Get(o) {
			t.Fatalf("%s seed=%d: one-bit TruthBits(%d,%d) mismatch", c.name, seed, p, o)
		}
	}
}

// TestLazyMatchesDense is the core oracle pin: for every generator family,
// word-unaligned m, zero and positive planted diameters, and several seeds,
// the lazy truth source must reproduce the dense matrix bit for bit.
func TestLazyMatchesDense(t *testing.T) {
	sizes := []struct{ n, m int }{
		{17, 63},  // sub-word row
		{40, 64},  // exact word boundary
		{33, 129}, // word + 1 tail bit
		{64, 300},
	}
	for _, diameter := range []int{0, 10} {
		for _, sz := range sizes {
			for _, c := range lazyCases(7, 5, diameter, 1.1) {
				for seed := uint64(1); seed <= 3; seed++ {
					requireLazyMatchesDense(t, c, sz.n, sz.m, seed)
				}
			}
		}
	}
}

// TestLazyReadsAreReproducible is the determinism-contract meta-test for
// TruthSource: any (seed, player, word) read returns the same bits on every
// call, regardless of read order or interleaving. quick.Check drives random
// read schedules against first-read snapshots.
func TestLazyReadsAreReproducible(t *testing.T) {
	const n, m = 30, 200
	words := (m + 63) / 64
	build := func(seed uint64) *Instance {
		return LazyDiameterClusters(xrand.New(seed), n, m, 5, 12, 0)
	}
	err := quick.Check(func(seed uint64, rawP, rawWi uint16) bool {
		p, wi := int(rawP)%n, int(rawWi)%words
		src := build(seed).Source()
		first := src.TruthWord(p, wi)
		// Re-read after unrelated reads.
		for i := 0; i < 50; i++ {
			src.TruthWord((p*7+i)%n, (wi+i)%words)
		}
		if src.TruthWord(p, wi) != first {
			return false
		}
		// A separately constructed source over the same seed agrees too.
		return build(seed).Source().TruthWord(p, wi) == first
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLazyConcurrentProbes hammers one lazy source from several goroutines
// under the race detector: reads share the source, and every read must stay
// bit-identical to a separately constructed source's.
func TestLazyConcurrentProbes(t *testing.T) {
	const n, m = 40, 2000
	src := LazyDiameterClusters(xrand.New(5), n, m, 8, 16, 0).Source()
	oracle := LazyDiameterClusters(xrand.New(5), n, m, 8, 16, 0).Source()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			order := xrand.New(uint64(g) + 100)
			for i := 0; i < 3000; i++ {
				p, wi := order.Intn(n), order.Intn((m+63)/64)
				if got, want := src.TruthWord(p, wi), oracle.TruthWord(p, wi); got != want {
					done <- fmt.Errorf("goroutine %d: TruthWord(%d,%d) = %#x, want %#x", g, p, wi, got, want)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLazyWordTailMasking pins that bits past the last object are zero in
// every lazy word, exactly as bitvec.Vector.Word guarantees for dense rows.
func TestLazyWordTailMasking(t *testing.T) {
	const n, m = 10, 70 // last word has 6 live bits
	src := LazyUniform(xrand.New(3), n, m).Source()
	var mask uint64 = (1 << (m % 64)) - 1
	for p := 0; p < n; p++ {
		if w := src.TruthWord(p, 1); w&^mask != 0 {
			t.Fatalf("row %d: tail word %#x has bits past object %d", p, w, m)
		}
	}
}

// TestLazyWordPanicsLikeDense pins that an out-of-range word read fails the
// same way on both representations (the world layer relies on it).
func TestLazyWordPanicsLikeDense(t *testing.T) {
	src := LazyUniform(xrand.New(1), 4, 100).Source()
	for _, wi := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("TruthWord(0,%d) did not panic", wi)
				}
			}()
			src.TruthWord(0, wi)
		}()
	}
}

// TestMaterializeDense pins that Materialize over a Dense source returns a
// copy, not an alias.
func TestMaterializeDense(t *testing.T) {
	in := Uniform(xrand.New(2), 5, 90)
	row := Materialize(in.Source(), 3)
	if !row.Equal(in.Truth[3]) {
		t.Fatal("materialized dense row differs")
	}
	row.Flip(0)
	if row.Equal(in.Truth[3]) {
		t.Fatal("Materialize aliased the dense row")
	}
}

// TestNewDenseRaggedPanics pins the row-shape check Dense owns: the worlds
// read truth only through the source, so a ragged matrix must fail here.
func TestNewDenseRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense accepted ragged rows")
		}
	}()
	NewDense([]bitvec.Vector{bitvec.New(64), bitvec.New(64), bitvec.New(65)})
}

// TestParseSourceSpec pins the spec grammar: canonical forms round-trip
// through String, the default is dense, and malformed specs are rejected.
func TestParseSourceSpec(t *testing.T) {
	good := []struct {
		in   string
		want SourceSpec
		str  string
	}{
		{"", SourceSpec{}, "dense"},
		{"dense", SourceSpec{}, "dense"},
		{"lazy", SourceSpec{Kind: "lazy"}, "lazy"},
	}
	for _, g := range good {
		sp, err := ParseSourceSpec(g.in)
		if err != nil {
			t.Fatalf("ParseSourceSpec(%q): %v", g.in, err)
		}
		if sp != g.want {
			t.Fatalf("ParseSourceSpec(%q) = %+v, want %+v", g.in, sp, g.want)
		}
		if sp.String() != g.str {
			t.Fatalf("ParseSourceSpec(%q).String() = %q, want %q", g.in, sp.String(), g.str)
		}
		if rt, err := ParseSourceSpec(sp.String()); err != nil || rt != sp {
			t.Fatalf("round-trip of %q failed: %+v, %v", g.in, rt, err)
		}
	}
	bad := []string{
		"Dense", "LAZY", "lazy:", "lazy:0", "lazy:1", "lazy:4096", "lazy:-3", "lazy:2.5", "lazy:x",
		"lazy:1:2", "eager", "dense:4", ":4", "lazy :4", " lazy", "lazy ",
	}
	for _, s := range bad {
		if _, err := ParseSourceSpec(s); err == nil {
			t.Fatalf("ParseSourceSpec(%q) accepted a malformed spec", s)
		}
	}
}

// FuzzTruthSpec fuzzes the -truth parser: no panics, and every accepted
// spec must be canonical under a String round-trip, and no accepted spec
// carries a tile count.
func FuzzTruthSpec(f *testing.F) {
	for _, s := range []string{"", "dense", "lazy", "lazy:16", "lazy:0", "lazy:-1", "exact", "lsh:8:4", "lazy:99999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSourceSpec(s)
		if err != nil {
			if sp != (SourceSpec{}) {
				t.Fatalf("error return carried a non-zero spec: %+v", sp)
			}
			return
		}
		if sp.Tiles != 0 {
			t.Fatalf("accepted spec with a tile count: %+v", sp)
		}
		if !sp.IsDense() && sp.Kind != "lazy" {
			t.Fatalf("accepted non-canonical spec: %+v", sp)
		}
		rt, err := ParseSourceSpec(sp.String())
		if err != nil || rt != sp {
			t.Fatalf("accepted spec %q does not round-trip: %+v, %v", s, rt, err)
		}
	})
}
