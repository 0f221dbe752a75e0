package multival

import (
	"slices"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/xrand"
)

// TestLazyGenerateMatchesGenerate pins the rating-side oracle: LazyGenerate
// must consume the stream exactly as Generate does and expose a cell-for-
// cell identical matrix, across odd object counts, scales, and diameters.
func TestLazyGenerateMatchesGenerate(t *testing.T) {
	cases := []struct {
		n, m, clusterSize, diameter, scale int
	}{
		{20, 130, 4, 10, 5},
		{15, 64, 3, 0, 7},
		{24, 99, 6, 16, 3},
		{10, 70, 10, 4, 1}, // single cluster, binary scale
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			dRng, lRng := xrand.New(seed), xrand.New(seed)
			truth, wantCl := Generate(dRng, tc.n, tc.m, tc.clusterSize, tc.diameter, tc.scale)
			src, gotCl := LazyGenerate(lRng, tc.n, tc.m, tc.clusterSize, tc.diameter, tc.scale)
			if dRng.Uint64() != lRng.Uint64() {
				t.Fatalf("%+v seed=%d: lazy generator left the stream in a different state", tc, seed)
			}
			if src.Players() != tc.n || src.Objects() != tc.m || src.Bits() != bitvec.PlaneBits(tc.scale) {
				t.Fatalf("%+v: lazy dims (%d,%d,%d)", tc, src.Players(), src.Objects(), src.Bits())
			}
			for p := 0; p < tc.n; p++ {
				if gotCl[p] != wantCl[p] {
					t.Fatalf("%+v seed=%d: clusterOf[%d] = %d, want %d", tc, seed, p, gotCl[p], wantCl[p])
				}
				for o := 0; o < tc.m; o++ {
					if got, want := src.Rating(p, o), truth[p].Get(o); got != want {
						t.Fatalf("%+v seed=%d: Rating(%d,%d) = %d, want %d", tc, seed, p, o, got, want)
					}
				}
				if !materializeRow(src, p).Equal(truth[p]) {
					t.Fatalf("%+v seed=%d: materialized row %d differs (PlaneWords path)", tc, seed, p)
				}
			}
		}
	}
}

// TestLazyRatingWorldMatchesDense pins the world layer: Probe,
// ProbePlaneWords, ProbeValues, PeekTruth, TruthRow, TruthMirror, and
// Errors must agree between dense and lazy rating worlds over the same
// stream, with identical probe charging.
func TestLazyRatingWorldMatchesDense(t *testing.T) {
	const n, m, clusterSize, diameter, scale = 16, 130, 4, 10, 5
	truth, _ := Generate(xrand.New(11), n, m, clusterSize, diameter, scale)
	src, _ := LazyGenerate(xrand.New(11), n, m, clusterSize, diameter, scale)
	dw := NewWorld(truth, scale)
	lw := NewWorldFrom(src, scale)
	if lw.N() != dw.N() || lw.M() != dw.M() || lw.Bits() != dw.Bits() {
		t.Fatalf("lazy world dims (%d,%d,%d)", lw.N(), lw.M(), lw.Bits())
	}
	order := xrand.New(3)
	for i := 0; i < 1500; i++ {
		p, o := order.Intn(n), order.Intn(m)
		if lw.Probe(p, o) != dw.Probe(p, o) {
			t.Fatalf("Probe(%d,%d) mismatch", p, o)
		}
		if lw.PeekTruth(p, o) != dw.PeekTruth(p, o) {
			t.Fatalf("PeekTruth(%d,%d) mismatch", p, o)
		}
	}
	k := dw.Bits()
	dDst, lDst := make([]uint64, k), make([]uint64, k)
	for wi := 0; wi < dw.ProbeWords(); wi++ {
		dw.ProbePlaneWords(2, wi, ^uint64(0), dDst)
		lw.ProbePlaneWords(2, wi, ^uint64(0), lDst)
		for l := 0; l < k; l++ {
			if dDst[l] != lDst[l] {
				t.Fatalf("ProbePlaneWords(2,%d) plane %d: %#x vs %#x", wi, l, lDst[l], dDst[l])
			}
		}
	}
	objs := []int{5, 64, 65, 2, 129, 99, 64}
	if !lw.ProbeValues(6, objs).Equal(dw.ProbeValues(6, objs)) {
		t.Fatal("ProbeValues mismatch")
	}
	for p := 0; p < n; p++ {
		if lw.Probes(p) != dw.Probes(p) {
			t.Fatalf("player %d charged %d (lazy) vs %d (dense)", p, lw.Probes(p), dw.Probes(p))
		}
		if lw.TruthRow(p).L1(dw.TruthRow(p)) != 0 {
			t.Fatalf("TruthRow(%d) mismatch", p)
		}
		if !lw.TruthMirror(p).Equal(dw.TruthMirror(p)) {
			t.Fatalf("TruthMirror(%d) mismatch", p)
		}
	}
	zero := make([]bitvec.Planes, n)
	for p := range zero {
		zero[p] = bitvec.NewPlanes(m, k)
	}
	de, le := Errors(dw, zero), Errors(lw, zero)
	for i := range de {
		if de[i] != le[i] {
			t.Fatalf("Errors[%d]: %d (lazy) vs %d (dense)", i, le[i], de[i])
		}
	}
}

// TestLazyRatingProtocolMatchesDense is the end-to-end oracle at the
// ratings layer: a full generalized-protocol run over a lazy world must be
// byte-identical to the dense run — outputs, iteration stats, and probe
// counts — under serial, fixed-width, and parallel schedules.
func TestLazyRatingProtocolMatchesDense(t *testing.T) {
	const n, m, clusterSize, diameter, scale = 24, 200, 6, 8, 5
	type schedule struct {
		name string
		pr   func(Params) Params
	}
	schedules := []schedule{
		{"serial", func(pr Params) Params { pr.PhaseSerial = true; return pr }},
		{"fixed2", func(pr Params) Params { pr.PhaseWorkers = 2; return pr }},
		{"parallel", func(pr Params) Params { return pr }},
	}
	var ref *Result
	var refProbes []int64
	for _, repr := range []string{"dense", "lazy"} {
		for _, sch := range schedules {
			var w *World
			if repr == "dense" {
				truth, _ := Generate(xrand.New(21), n, m, clusterSize, diameter, scale)
				w = NewWorld(truth, scale)
			} else {
				src, _ := LazyGenerate(xrand.New(21), n, m, clusterSize, diameter, scale)
				w = NewWorldFrom(src, scale)
			}
			w.SetBehavior(1, Inverter{})
			w.SetBehavior(7, Exaggerator{})
			pr := sch.pr(Scaled(n, 4))
			pr.MaxD = 64
			res := Run(w, xrand.New(77), pr)
			probes := make([]int64, n)
			for p := range probes {
				probes[p] = w.Probes(p)
			}
			if ref == nil {
				ref, refProbes = res, probes
				continue
			}
			for p := 0; p < n; p++ {
				if !res.Output[p].Equal(ref.Output[p]) {
					t.Fatalf("%s/%s: output for player %d diverges from reference", repr, sch.name, p)
				}
				if probes[p] != refProbes[p] {
					t.Fatalf("%s/%s: player %d probes %d, reference %d", repr, sch.name, p, probes[p], refProbes[p])
				}
			}
			if !slices.Equal(res.Iterations, ref.Iterations) {
				t.Fatalf("%s/%s: iteration stats %+v diverge from %+v", repr, sch.name, res.Iterations, ref.Iterations)
			}
		}
	}
}

// TestLazyRatingProbeAllocFree guards the lazy rating probe hot path: once
// a player's memo is installed, plane-word probes into a caller-provided
// buffer must not allocate.
func TestLazyRatingProbeAllocFree(t *testing.T) {
	src, _ := LazyGenerate(xrand.New(9), 4, 4096, 2, 8, 5)
	w := NewWorldFrom(src, 5)
	dst := make([]uint64, w.Bits())
	wi := 0
	if n := testing.AllocsPerRun(200, func() {
		w.ProbePlaneWords(0, wi%w.ProbeWords(), ^uint64(0), dst)
		wi++
	}); n != 0 {
		t.Fatalf("lazy ProbePlaneWords allocates %v times per run", n)
	}
}

// TestNewDensePlanesShapePanics pins the row-shape check DensePlanes owns:
// rows disagreeing with the first row in object count or plane count are
// rejected at construction.
func TestNewDensePlanesShapePanics(t *testing.T) {
	for name, rows := range map[string][]bitvec.Planes{
		"objects": {bitvec.NewPlanes(70, 3), bitvec.NewPlanes(69, 3)},
		"planes":  {bitvec.NewPlanes(70, 3), bitvec.NewPlanes(70, 2)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: NewDensePlanes accepted mismatched rows", name)
				}
			}()
			NewDensePlanes(rows)
		}()
	}
}
