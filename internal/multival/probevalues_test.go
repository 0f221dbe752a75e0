package multival

import (
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/xrand"
)

// probeValuesOracle is the per-object ProbeValues: one Probe (charge and
// Rating read) and one Set per object. The compiled-gather ProbeValues
// must match it in output, probe counts and memo.
func probeValuesOracle(w *World, p int, objs []int) bitvec.Planes {
	out := bitvec.NewPlanes(len(objs), w.Bits())
	for j, o := range objs {
		out.Set(j, w.Probe(p, o))
	}
	return out
}

// ratingWorldPair returns two fresh worlds over the same truth, dense or
// lazy: one for the code under test, one for the oracle.
func ratingWorldPair(lazy bool, n, m, scale int) (*World, *World) {
	const clusterSize, diameter = 4, 12
	if lazy {
		a, _ := LazyGenerate(xrand.New(41), n, m, clusterSize, diameter, scale)
		b, _ := LazyGenerate(xrand.New(41), n, m, clusterSize, diameter, scale)
		return NewWorldFrom(a, scale), NewWorldFrom(b, scale)
	}
	truth, _ := Generate(xrand.New(41), n, m, clusterSize, diameter, scale)
	return NewWorld(truth, scale), NewWorld(truth, scale)
}

// TestProbeValuesMatchesPerObjectOracle pins the compiled-gather ProbeValues
// against the per-object oracle on dense and lazy truth: sorted, unsorted
// and duplicate object lists, an empty list, lists whose output's last word
// is not full, and objects in the truth's short final word. After every
// call, each player's probe count must match, and probing every object
// once more must charge both worlds identically (equal memos).
func TestProbeValuesMatchesPerObjectOracle(t *testing.T) {
	const n, m, scale = 8, 200, 5 // m = 3·64 + 8: a short final truth word
	lists := map[string][]int{
		"empty":      {},
		"one":        {199},
		"sorted":     {0, 1, 2, 63, 64, 65, 127, 128, 190, 199},
		"unsorted":   {130, 5, 64, 65, 2, 199, 99, 64, 0, 191},
		"duplicates": {7, 7, 7, 70, 7, 70, 199, 199},
	}
	// A 130-object strided list: three output words, the last holding 2.
	var strided []int
	for o := 0; len(strided) < 130; o = (o + 37) % m {
		strided = append(strided, o)
	}
	lists["strided"] = strided
	// Every object in descending order: output words straddle truth words.
	var desc []int
	for o := m - 1; o >= 0; o-- {
		desc = append(desc, o)
	}
	lists["descending"] = desc
	for _, lazy := range []bool{false, true} {
		w, oracle := ratingWorldPair(lazy, n, m, scale)
		p := 0
		for name, objs := range lists {
			g := bitvec.CompileExtraction(objs, m)
			got, want := w.ProbeValues(p, g), probeValuesOracle(oracle, p, objs)
			if !got.Equal(want) {
				t.Fatalf("lazy=%v %s: ProbeValues = %v, oracle %v", lazy, name, got.Ints(), want.Ints())
			}
			// Probing the same list again is free on both sides.
			w.ProbeValues(p, g)
			for q := 0; q < n; q++ {
				if w.Probes(q) != oracle.Probes(q) {
					t.Fatalf("lazy=%v %s: player %d charged %d, oracle %d", lazy, name, q, w.Probes(q), oracle.Probes(q))
				}
			}
			p = (p + 1) % 3 // players 0..2 accumulate several lists each
		}
		for q := 0; q < n; q++ {
			for o := 0; o < m; o++ {
				before, beforeOracle := w.Probes(q), oracle.Probes(q)
				w.Probe(q, o)
				oracle.Probe(q, o)
				if w.Probes(q)-before != oracle.Probes(q)-beforeOracle {
					t.Fatalf("lazy=%v: memo differs at (%d, %d)", lazy, q, o)
				}
			}
		}
	}
}

// TestProbeValuesOutOfRangeChargesNothing: an out-of-range object anywhere
// in the list panics before any word is charged, so the ledger is left as
// it was — including when in-range objects precede the bad one. The
// range check runs when the list is compiled, so the panic comes from
// CompileExtraction.
func TestProbeValuesOutOfRangeChargesNothing(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		w, _ := ratingWorldPair(lazy, 8, 200, 5)
		w.Probe(1, 3)
		for _, objs := range [][]int{{0, 70, 140, 200}, {5, -1}, {199, 64, 1 << 20}} {
			before := w.TotalProbes()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("lazy=%v %v: no panic", lazy, objs)
					}
				}()
				w.ProbeValues(1, bitvec.CompileExtraction(objs, w.M()))
			}()
			if got := w.TotalProbes(); got != before {
				t.Fatalf("lazy=%v %v: TotalProbes %d after the panic, want %d", lazy, objs, got, before)
			}
		}
		// The memo is untouched too: the listed in-range objects still charge.
		if w.Probe(1, 70); w.Probes(1) != 2 {
			t.Fatalf("lazy=%v: object 70 was memoized by a panicking ProbeValues", lazy)
		}
	}
}

// TestProbeValuesRefusesForeignList: a list compiled for another object
// count panics in ProbeValues and ReportValues before any word is charged.
func TestProbeValuesRefusesForeignList(t *testing.T) {
	w, _ := ratingWorldPair(false, 8, 200, 5)
	g := bitvec.CompileExtraction([]int{0, 70, 140}, 201)
	for name, f := range map[string]func(){
		"ProbeValues":  func() { w.ProbeValues(1, g) },
		"ReportValues": func() { w.ReportValues(1, g) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a list compiled for 201 objects", name)
				}
			}()
			f()
		}()
		if w.TotalProbes() != 0 {
			t.Fatalf("%s charged %d probes before panicking", name, w.TotalProbes())
		}
	}
}

// wrappedSource hides a source's concrete type, as a RatingSource defined
// outside this package would.
type wrappedSource struct{ RatingSource }

// TestProbeValuesThroughOtherSource: a source the world does not know by
// type is read through the interface and gives the same values and
// charges as the dense source it wraps.
func TestProbeValuesThroughOtherSource(t *testing.T) {
	truth, _ := Generate(xrand.New(41), 8, 200, 4, 12, 5)
	w, ref := NewWorldFrom(wrappedSource{NewDensePlanes(truth)}, 5), NewWorld(truth, 5)
	g := bitvec.CompileExtraction([]int{3, 64, 65, 199, 7, 130}, 200)
	if got, want := w.ProbeValues(2, g), ref.ProbeValues(2, g); !got.Equal(want) {
		t.Fatalf("ProbeValues = %v, dense %v", got.Ints(), want.Ints())
	}
	if w.Probes(2) != ref.Probes(2) {
		t.Fatalf("charged %d, dense %d", w.Probes(2), ref.Probes(2))
	}
}

// TestPublishAllocatesOnlyOutput pins the publish's allocations: once the
// player's memo row is installed, ProbeValues and an honest ReportValues
// over a compiled list allocate the returned Planes and nothing else (the
// per-word scratch stays on the stack), on dense and lazy truth.
func TestPublishAllocatesOnlyOutput(t *testing.T) {
	var objs []int
	for o := 3; o < 200; o += 3 {
		objs = append(objs, o)
	}
	g := bitvec.CompileExtraction(objs, 200)
	for _, lazy := range []bool{false, true} {
		w, _ := ratingWorldPair(lazy, 8, 200, 5)
		w.ProbeValues(0, g)
		if n := testing.AllocsPerRun(100, func() { w.ProbeValues(0, g) }); n != 1 {
			t.Errorf("lazy=%v: ProbeValues allocates %v times per call, want 1", lazy, n)
		}
		if n := testing.AllocsPerRun(100, func() { w.ReportValues(0, g) }); n != 1 {
			t.Errorf("lazy=%v: honest ReportValues allocates %v times per call, want 1", lazy, n)
		}
	}
}

// BenchmarkProbeValues times the honest publish over m = 2048 objects, as
// in the ratings-2k workload: a sorted sample of about one object in three
// (so runs share each object word), on a 0..5 scale. "compile" is the
// once-per-sample CompileExtraction; "gather" publishes one player's
// sample through the compiled list from a fresh memo row, over dense and
// lazy truth.
func BenchmarkProbeValues(b *testing.B) {
	const n, m, scale = 256, 2048, 5
	var objs []int
	rng := xrand.New(9)
	for o := 0; o < m; o++ {
		if rng.Intn(3) == 0 {
			objs = append(objs, o)
		}
	}
	b.Run("compile", func(b *testing.B) {
		for b.Loop() {
			bitvec.CompileExtraction(objs, m)
		}
	})
	g := bitvec.CompileExtraction(objs, m)
	for _, lazy := range []bool{false, true} {
		name := "gather/dense"
		if lazy {
			name = "gather/lazy"
		}
		w, _ := ratingWorldPair(lazy, n, m, scale)
		b.Run(name, func(b *testing.B) {
			p := 0
			for b.Loop() {
				if p == 0 {
					w.ResetProbes()
				}
				w.ProbeValues(p, g)
				p = (p + 1) % n
			}
		})
	}
}
