package world

import (
	"fmt"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

// lazyDensePair builds two worlds over the SAME generation stream: the
// dense reference and its lazy twin. Everything observable about them must
// agree; only memory layout differs.
func lazyDensePair(seed uint64, n, m, clusterSize, diameter int) (dense, lazy *World) {
	d := prefgen.DiameterClusters(xrand.New(seed), n, m, clusterSize, diameter)
	l := prefgen.LazyDiameterClusters(xrand.New(seed), n, m, clusterSize, diameter, 0)
	return New(d.Truth), NewFrom(l.Source())
}

// TestLazyWorldMatchesDense pins the probe-path oracle at the world layer:
// Probe, ProbeWord, ProbeVector, PeekTruth, TruthVector, and HonestError
// must be byte-identical between a dense world and a lazy world built from
// the same stream, with identical probe charging.
func TestLazyWorldMatchesDense(t *testing.T) {
	dw, lw := lazyDensePair(42, 20, 300, 4, 10)
	if lw.N() != dw.N() || lw.M() != dw.M() {
		t.Fatalf("dims (%d,%d), want (%d,%d)", lw.N(), lw.M(), dw.N(), dw.M())
	}
	order := xrand.New(7)
	for i := 0; i < 2000; i++ {
		p, o := order.Intn(dw.N()), order.Intn(dw.M())
		if lw.Probe(p, o) != dw.Probe(p, o) {
			t.Fatalf("Probe(%d,%d) mismatch", p, o)
		}
		if lw.PeekTruth(p, o) != dw.PeekTruth(p, o) {
			t.Fatalf("PeekTruth(%d,%d) mismatch", p, o)
		}
	}
	for wi := 0; wi < dw.ProbeWords(); wi++ {
		if got, want := lw.ProbeWord(3, wi, ^uint64(0)), dw.ProbeWord(3, wi, ^uint64(0)); got != want {
			t.Fatalf("ProbeWord(3,%d) = %#x, want %#x", wi, got, want)
		}
	}
	objs := []int{5, 64, 65, 2, 299, 131, 64}
	if !lw.ProbeVector(6, objs).Equal(dw.ProbeVector(6, objs)) {
		t.Fatal("ProbeVector mismatch")
	}
	for p := 0; p < dw.N(); p++ {
		if lw.Probes(p) != dw.Probes(p) {
			t.Fatalf("player %d charged %d (lazy) vs %d (dense)", p, lw.Probes(p), dw.Probes(p))
		}
		tv := lw.TruthVector(p)
		if !tv.Equal(dw.TruthVector(p)) {
			t.Fatalf("TruthVector(%d) mismatch", p)
		}
		if lw.HonestError(p, bitvec.New(dw.M())) != dw.HonestError(p, bitvec.New(dw.M())) {
			t.Fatalf("HonestError(%d) mismatch", p)
		}
	}
	if lw.MaxHonestProbes() != dw.MaxHonestProbes() || lw.TotalProbes() != dw.TotalProbes() {
		t.Fatal("probe totals diverge")
	}
}

// TestLazyWorldConcurrentFirstProbe races many goroutines into the very
// first probes of each player, where the memo install CAS happens: per-pair
// charging must stay exact under the race detector, and every read must
// match the dense oracle.
func TestLazyWorldConcurrentFirstProbe(t *testing.T) {
	const n, m = 8, 1024
	dw, lw := lazyDensePair(9, n, m, 2, 8)
	par.Fixed(8).For(n*lw.ProbeWords(), func(i int) {
		wi := i % lw.ProbeWords()
		p := i / lw.ProbeWords()
		if lw.ProbeWord(p, wi, ^uint64(0)) != dw.ProbeWord(p, wi, ^uint64(0)) {
			t.Errorf("ProbeWord(%d,%d) diverged from dense truth", p, wi)
		}
		for b := 0; b < 64 && wi*64+b < m; b += 9 {
			if lw.Probe(p, wi*64+b) != dw.PeekTruth(p, wi*64+b) {
				t.Errorf("Probe(%d,%d) diverged from dense truth", p, wi*64+b)
			}
		}
	})
	for p := 0; p < n; p++ {
		if got := lw.Probes(p); got != int64(m) {
			t.Fatalf("player %d charged %d probes, want exactly %d", p, got, m)
		}
	}
}

// TestLazyProbeWordAllocFree guards the lazy probe hot path: once a
// player's memo is installed, word probes must not allocate
// (warm-up run installs the memo), for full words and for the one-bit
// masks Select's scattered duel probes send.
func TestLazyProbeWordAllocFree(t *testing.T) {
	in := prefgen.LazyDiameterClusters(xrand.New(3), 2, 4096, 2, 8, 0)
	w := NewFrom(in.Source())
	for _, mask := range []func(i int) uint64{
		func(int) uint64 { return ^uint64(0) },
		func(i int) uint64 { return 1 << (uint(i*7) % 64) },
	} {
		var sink uint64
		wi := 0
		if n := testing.AllocsPerRun(200, func() {
			sink += w.ProbeWord(0, wi%w.ProbeWords(), mask(wi))
			wi++
		}); n != 0 {
			t.Fatalf("lazy ProbeWord allocates %v times per run", n)
		}
		_ = sink
	}
}

// TestProbeVectorMatchesProbe pins ProbeVector, which fills its output from
// the words ProbeWord returns, against per-object truth on dense and lazy
// worlds: identical vectors and per-player
// charges on unsorted, duplicate and cross-word object lists, each distinct
// object charged once.
func TestProbeVectorMatchesProbe(t *testing.T) {
	lists := [][]int{
		{299, 0, 64, 63, 128, 5, 200},   // unsorted, crossing words
		{7, 7, 70, 7, 70, 70},           // duplicates, revisited words
		{64, 65, 66, 127, 128, 129, 10}, // word-boundary runs
		{},
	}
	dw, lw := lazyDensePair(11, 6, 300, 3, 12)
	for i, objs := range lists {
		p := i % dw.N()
		dv, lv := dw.ProbeVector(p, objs), lw.ProbeVector(p, objs)
		if dv.Len() != len(objs) || !lv.Equal(dv) {
			t.Fatalf("list %d: lazy vector differs from dense", i)
		}
		for j, o := range objs {
			if dv.Get(j) != dw.PeekTruth(p, o) {
				t.Fatalf("list %d: bit %d (object %d) is not the truth", i, j, o)
			}
		}
	}
	for p := 0; p < dw.N(); p++ {
		if lw.Probes(p) != dw.Probes(p) {
			t.Fatalf("player %d charged %d (lazy) vs %d (dense)", p, lw.Probes(p), dw.Probes(p))
		}
	}
	if dw.Probes(0) != 7 || dw.Probes(1) != 2 || dw.Probes(2) != 7 {
		t.Fatalf("charges %d/%d/%d, want one per distinct object 7/2/7",
			dw.Probes(0), dw.Probes(1), dw.Probes(2))
	}
}

// TestLazyWorldWordMaskPanics pins that lazy worlds reject out-of-range
// word probes exactly like dense ones.
func TestLazyWorldWordMaskPanics(t *testing.T) {
	dw, lw := lazyDensePair(1, 4, 100, 2, 0)
	for _, w := range []*World{dw, lw} {
		for _, wi := range []int{-1, w.ProbeWords()} {
			func() {
				defer func() {
					msg, ok := recover().(string)
					if !ok {
						t.Fatalf("ProbeWord(0,%d) did not panic with a string", wi)
					}
					want := fmt.Sprintf("bitvec: word %d out of range [0,%d)", wi, w.ProbeWords())
					if msg != want {
						t.Fatalf("panic %q, want %q", msg, want)
					}
				}()
				w.ProbeWord(0, wi, 1)
			}()
		}
	}
}

// orderedLiar reports the opposite of the truth without probing and
// records the objects it is asked about, in order.
type orderedLiar struct{ asked *[]int }

func (l orderedLiar) Report(rc *Run, p, o int) bool {
	*l.asked = append(*l.asked, o)
	return !rc.PeekTruth(p, o)
}

// TestReportVectorMatchesPerObject pins ReportVector over a compiled list
// against the per-object reports it replaced, on dense and lazy worlds:
// for honest players the same truth bits and the same per-player probe
// counts as one Probe per object, for dishonest players their behavior's
// reports, asked once per entry in list order, with nothing charged.
func TestReportVectorMatchesPerObject(t *testing.T) {
	lists := [][]int{
		{299, 0, 64, 63, 128, 5, 200},   // unsorted, crossing words
		{7, 7, 70, 7, 70, 70},           // duplicates, revisited words
		{64, 65, 66, 127, 128, 129, 10}, // word-boundary runs
		{},
	}
	var long []int
	for o := 3; o < 300; o += 5 {
		long = append(long, o)
	}
	lists = append(lists, long)
	const liar = 4
	for _, lazy := range []bool{false, true} {
		worlds := [2]*World{}
		asked := [2][]int{}
		for i := range worlds {
			dw, lw := lazyDensePair(11, 6, 300, 3, 12)
			worlds[i] = dw
			if lazy {
				worlds[i] = lw
			}
			worlds[i].SetBehavior(liar, orderedLiar{&asked[i]})
		}
		compiled, oracle := NewRun(worlds[0]), NewRun(worlds[1])
		for li, objs := range lists {
			g := bitvec.CompileExtraction(objs, 300)
			for p := 0; p < compiled.N(); p++ {
				asked[0], asked[1] = asked[0][:0], asked[1][:0]
				got := compiled.ReportVector(p, g)
				want := bitvec.New(len(objs))
				for j, o := range objs {
					want.Set(j, oracle.Report(p, o))
				}
				if !got.Equal(want) {
					t.Fatalf("lazy=%v list %d p=%d: ReportVector %v, per-object %v", lazy, li, p, got, want)
				}
				if fmt.Sprint(asked[0]) != fmt.Sprint(asked[1]) {
					t.Fatalf("lazy=%v list %d: liar asked %v, per-object order %v", lazy, li, asked[0], asked[1])
				}
			}
		}
		for p := 0; p < compiled.N(); p++ {
			if a, b := compiled.Probes(p), oracle.Probes(p); a != b || (p == liar) != (a == 0) {
				t.Fatalf("lazy=%v player %d charged %d, per-object %d", lazy, p, a, b)
			}
		}
	}
}
