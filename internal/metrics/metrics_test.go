package metrics

import (
	"math"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]int{3, 1, 4, 1, 5})
	if s.Max != 5 {
		t.Fatalf("Max = %d", s.Max)
	}
	if math.Abs(s.Mean-2.8) > 1e-9 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.Median != 3 {
		t.Fatalf("Median = %d", s.Median)
	}
	if s.P95 != 5 {
		t.Fatalf("P95 = %d", s.P95)
	}
	if s.N != 5 {
		t.Fatalf("N = %d", s.N)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Max != 0 || s.Mean != 0 || s.N != 0 {
		t.Fatalf("empty Summarize = %+v", s)
	}
}

func TestErrorsHonestOnly(t *testing.T) {
	in := prefgen.Uniform(xrand.New(1), 4, 16)
	w := world.New(in.Truth)
	w.SetBehavior(2, dishonest{})
	outputs := make([]bitvec.Vector, 4)
	for p := range outputs {
		outputs[p] = w.TruthVector(p) // exact for everyone
	}
	outputs[0].Flip(0) // honest player 0 has error 1
	errs := Errors(w, outputs)
	if len(errs) != 3 {
		t.Fatalf("Errors measured %d players, want 3 honest", len(errs))
	}
	es := Error(w, outputs)
	if es.Max != 1 {
		t.Fatalf("Max = %d, want 1", es.Max)
	}
}

type dishonest struct{}

func (dishonest) Report(_ *world.Run, _, _ int) bool { return false }

func TestProbes(t *testing.T) {
	in := prefgen.Uniform(xrand.New(2), 3, 32)
	w := world.New(in.Truth)
	w.SetBehavior(2, dishonest{})
	for o := 0; o < 10; o++ {
		w.Probe(0, o)
	}
	for o := 0; o < 4; o++ {
		w.Probe(1, o)
	}
	for o := 0; o < 30; o++ {
		w.Probe(2, o) // dishonest: counted in Total only
	}
	ps := Probes(w)
	if ps.Max != 10 {
		t.Fatalf("Max = %d, want 10 (dishonest excluded)", ps.Max)
	}
	if math.Abs(ps.Mean-7) > 1e-9 {
		t.Fatalf("Mean = %v, want 7", ps.Mean)
	}
	if ps.Total != 44 {
		t.Fatalf("Total = %d, want 44", ps.Total)
	}
}

func TestApproxRatio(t *testing.T) {
	if r := ApproxRatio(10, 5); r != 2 {
		t.Fatalf("ratio = %v", r)
	}
	if r := ApproxRatio(0, 0); r != 1 {
		t.Fatalf("0/0 ratio = %v, want 1", r)
	}
	if r := ApproxRatio(3, 0); r != 3 {
		t.Fatalf("3/0 ratio = %v, want 3 (vs optimal 1)", r)
	}
}

func TestMeanStdCI(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-9 {
		t.Fatalf("Mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) not zero")
	}
}

func TestMaxInt(t *testing.T) {
	if MaxInt([]int{-5, -2, -9}) != -2 {
		t.Fatal("MaxInt with negatives")
	}
	if MaxInt(nil) != 0 {
		t.Fatal("MaxInt(nil) should be 0")
	}
}
