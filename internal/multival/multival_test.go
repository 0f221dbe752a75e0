package multival

import (
	"slices"
	"testing"
	"testing/quick"

	"collabscore/internal/bitvec"
	"collabscore/internal/board"
	"collabscore/internal/core"
	"collabscore/internal/xrand"
)

func TestRatingsL1(t *testing.T) {
	a := Ratings{1, 5, 3}
	b := Ratings{2, 2, 3}
	if d := a.L1(b); d != 4 {
		t.Fatalf("L1 = %d, want 4", d)
	}
	if a.L1(a) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestL1IsMetric(t *testing.T) {
	f := func(xa, xb, xc []uint8) bool {
		n := len(xa)
		if len(xb) < n {
			n = len(xb)
		}
		if len(xc) < n {
			n = len(xc)
		}
		if n == 0 {
			return true
		}
		a, b, c := make(Ratings, n), make(Ratings, n), make(Ratings, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = int(xa[i]%11), int(xb[i]%11), int(xc[i]%11)
		}
		if a.L1(b) != b.L1(a) {
			return false
		}
		return a.L1(c) <= a.L1(b)+b.L1(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestL1PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Ratings{1}.L1(Ratings{1, 2})
}

// shareMedian is the rating share's tally of one object: each report is
// published in its own lane of a board of PlaneBits(scale) planes, and the
// frozen board's median is read back.
func shareMedian(scale int, reports []int) int {
	k := bitvec.PlaneBits(scale)
	bd := board.NewPlanes(len(reports), 1, k)
	players := make([]int, len(reports))
	planes := make([]uint64, k)
	for p, v := range reports {
		for l := range planes {
			planes[l] = uint64(v >> l & 1)
		}
		bd.WritePlanes(p, 0, 1, planes)
		players[p] = p
	}
	bd.Freeze().MedianWords(0, players, planes)
	v := 0
	for l, x := range planes {
		v |= int(x&1) << l
	}
	return v
}

// TestMedian: the share's tally is the lower median, and 0 with no
// reports.
func TestMedian(t *testing.T) {
	if shareMedian(5, []int{5, 1, 3}) != 3 {
		t.Fatal("odd median")
	}
	if shareMedian(5, []int{4, 1, 3, 2}) != 2 {
		t.Fatal("even (lower) median")
	}
	if shareMedian(5, nil) != 0 {
		t.Fatal("empty median")
	}
}

func TestMedianRobustToOutliers(t *testing.T) {
	// 7 honest reports of 5, 3 adversarial extremes: median must stay 5.
	reports := []int{5, 5, 5, 5, 5, 5, 5, 10, 10, 0}
	if m := shareMedian(10, reports); m != 5 {
		t.Fatalf("median %d, want 5", m)
	}
}

func TestGenerateDiameterBound(t *testing.T) {
	const n, m, size, d, scale = 60, 100, 20, 10, 10
	truth, clusterOf := Generate(xrand.New(1), n, m, size, d, scale)
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			if clusterOf[p] != clusterOf[q] {
				continue
			}
			if dist := truth[p].L1(truth[q]); dist > d {
				t.Fatalf("pair (%d,%d) L1 %d > planted %d", p, q, dist, d)
			}
		}
	}
	for p := 0; p < n; p++ {
		for o := 0; o < m; o++ {
			if v := truth[p].Get(o); v < 0 || v > scale {
				t.Fatalf("rating %d out of scale", v)
			}
		}
	}
}

func TestWorldProbeAccounting(t *testing.T) {
	truth, _ := Generate(xrand.New(2), 8, 16, 4, 2, 5)
	w := NewWorld(truth, 5)
	w.Probe(0, 3)
	w.Probe(0, 3)
	if w.Probes(0) != 1 {
		t.Fatalf("probes = %d, want 1 (memoized)", w.Probes(0))
	}
	if w.Probe(0, 3) != truth[0].Get(3) {
		t.Fatal("probe returned wrong truth")
	}
	// Bulk word-level probing charges identically: re-probing the same
	// object through ProbePlaneWords learns nothing new.
	dst := make([]uint64, w.Bits())
	w.ProbePlaneWords(0, 0, 1<<3|1<<7, dst)
	if w.Probes(0) != 2 {
		t.Fatalf("probes = %d after word probe, want 2", w.Probes(0))
	}
	if dst[0]&(1<<3) != 0 != (truth[0].Get(3)&1 == 1) {
		t.Fatal("ProbePlaneWords returned wrong plane bits")
	}
}

func TestHonestAccuracy(t *testing.T) {
	const n, m, b, d, scale = 256, 256, 8, 32, 5
	truth, _ := Generate(xrand.New(3), n, m, n/b, d, scale)
	w := NewWorld(truth, scale)
	pr := Scaled(n, b)
	pr.MinD, pr.MaxD = d, d
	res := Run(w, xrand.New(4), pr)
	es := ErrorStats(w, res.Output)
	if es.Max > 3*d {
		t.Fatalf("max L1 error %d > %d", es.Max, 3*d)
	}
}

func TestProbeSavings(t *testing.T) {
	const n, m, b, d, scale = 512, 512, 8, 64, 5
	truth, _ := Generate(xrand.New(5), n, m, n/b, d, scale)
	w := NewWorld(truth, scale)
	pr := Scaled(n, b)
	pr.MinD, pr.MaxD = d, d
	res := Run(w, xrand.New(6), pr)
	es := ErrorStats(w, res.Output)
	if es.Max > 3*d {
		t.Fatalf("max L1 error %d", es.Max)
	}
	if probes := w.MaxHonestProbes(); probes > m/2 {
		t.Fatalf("max probes %d ≥ m/2", probes)
	}
}

func corrupt(w *World, k int, rng *xrand.Stream, mk func(p int) Behavior) {
	perm := rng.Perm(w.N())
	for i := 0; i < k; i++ {
		w.SetBehavior(perm[i], mk(perm[i]))
	}
}

func TestByzantineMedianRobustness(t *testing.T) {
	const n, m, b, d, scale = 256, 256, 8, 32, 5
	strategies := map[string]func(p int) Behavior{
		"random":      func(p int) Behavior { return RandomRater{Seed: 7} },
		"exaggerator": func(p int) Behavior { return Exaggerator{} },
		"shifter":     func(p int) Behavior { return Shifter{Delta: 4} },
	}
	for name, mk := range strategies {
		truth, _ := Generate(xrand.New(8), n, m, n/b, d, scale)
		w := NewWorld(truth, scale)
		corrupt(w, n/(3*b), xrand.New(9), mk)
		pr := Scaled(n, b)
		pr.MinD, pr.MaxD = d, d
		res := Run(w, xrand.New(10), pr)
		es := ErrorStats(w, res.Output)
		if es.Max > 3*d {
			t.Fatalf("%s: max L1 error %d > %d", name, es.Max, 3*d)
		}
	}
}

func TestAdversaryBehaviors(t *testing.T) {
	truth, _ := Generate(xrand.New(11), 4, 8, 2, 2, 10)
	w := NewWorld(truth, 10)
	rr := RandomRater{Seed: 1}
	if rr.Report(w, 0, 0) != rr.Report(w, 0, 0) {
		t.Fatal("RandomRater inconsistent")
	}
	ex := Exaggerator{}
	for o := 0; o < 8; o++ {
		r := ex.Report(w, 0, o)
		if r != 0 && r != 10 {
			t.Fatalf("Exaggerator rated %d", r)
		}
	}
	sh := Shifter{Delta: 100}
	if sh.Report(w, 0, 0) != 10 {
		t.Fatal("Shifter not clamped")
	}
}

func TestDishonestMarked(t *testing.T) {
	truth, _ := Generate(xrand.New(12), 4, 8, 2, 2, 5)
	w := NewWorld(truth, 5)
	w.SetBehavior(1, Exaggerator{})
	if w.IsHonest(1) {
		t.Fatal("Exaggerator marked honest")
	}
	if !w.IsHonest(0) {
		t.Fatal("player 0 should be honest")
	}
}

func TestByzantineWrapperHonest(t *testing.T) {
	const n, m, b, d, scale = 256, 256, 8, 32, 5
	truth, _ := Generate(xrand.New(21), n, m, n/b, d, scale)
	w := NewWorld(truth, scale)
	pr := Scaled(n, b)
	pr.MinD, pr.MaxD = d, d
	res := RunByzantine(w, xrand.New(22), nil, 3, pr)
	if res.HonestLeaders != 3 {
		t.Fatalf("honest leaders %d/3 with no adversary", res.HonestLeaders)
	}
	es := ErrorStats(w, res.Output)
	if es.Max > 3*d {
		t.Fatalf("max L1 error %d > %d", es.Max, 3*d)
	}
}

func TestByzantineWrapperUnderAttack(t *testing.T) {
	const n, m, b, d, scale = 256, 256, 8, 32, 5
	truth, _ := Generate(xrand.New(23), n, m, n/b, d, scale)
	w := NewWorld(truth, scale)
	corrupt(w, n/(3*b), xrand.New(24), func(p int) Behavior { return Exaggerator{} })
	pr := Scaled(n, b)
	pr.MinD, pr.MaxD = d, d
	res := RunByzantine(w, xrand.New(25), nil, 5, pr)
	if res.HonestLeaders == 0 {
		t.Fatal("no honest leader elected")
	}
	es := ErrorStats(w, res.Output)
	if es.Max > 3*d {
		t.Fatalf("Byzantine max L1 error %d > %d", es.Max, 3*d)
	}
	// Dishonest entries are zeroed.
	for p := 0; p < n; p++ {
		if !w.IsHonest(p) {
			for _, r := range res.Output[p].Ints() {
				if r != 0 {
					t.Fatal("dishonest output not zeroed")
				}
			}
		}
	}
}

// TestBoardTrafficRecorded: the rating share publishes on the bulletin
// board, so Run and RunByzantine record writes and reads, and the per-guess
// statistics sum to each repetition's totals and those to the run's.
func TestBoardTrafficRecorded(t *testing.T) {
	const n, m, b, d, scale = 256, 256, 8, 32, 5
	truth, _ := Generate(xrand.New(31), n, m, n/b, d, scale)
	w := NewWorld(truth, scale)
	corrupt(w, n/(3*b), xrand.New(32), func(p int) Behavior { return Exaggerator{} })
	pr := Scaled(n, b)
	pr.MinD, pr.MaxD = d/2, d
	sums := func(its []core.IterationStats) (wr, rd int64) {
		for _, it := range its {
			wr += it.BoardWrites
			rd += it.BoardReads
		}
		return wr, rd
	}
	run := Run(w, xrand.New(33), pr)
	byz := RunByzantine(w, xrand.New(34), nil, 3, pr)
	for name, res := range map[string]*Result{"Run": run, "RunByzantine": byz} {
		if res.BoardWrites == 0 || res.BoardReads == 0 {
			t.Fatalf("%s: board traffic %d writes, %d reads; want both > 0", name, res.BoardWrites, res.BoardReads)
		}
	}
	if wr, rd := sums(run.Iterations); wr != run.BoardWrites || rd != run.BoardReads {
		t.Fatalf("Run: iteration sums (%d,%d) != totals (%d,%d)", wr, rd, run.BoardWrites, run.BoardReads)
	}
	var repW, repR int64
	for i, rp := range byz.Reps {
		if wr, rd := sums(rp.Iterations); wr != rp.BoardWrites || rd != rp.BoardReads {
			t.Fatalf("repetition %d: iteration sums (%d,%d) != totals (%d,%d)", i, wr, rd, rp.BoardWrites, rp.BoardReads)
		}
		repW += rp.BoardWrites
		repR += rp.BoardReads
	}
	if repW != byz.BoardWrites || repR != byz.BoardReads {
		t.Fatalf("RunByzantine: repetition sums (%d,%d) != totals (%d,%d)", repW, repR, byz.BoardWrites, byz.BoardReads)
	}
}

// TestPlanesL1MatchesRatings cross-checks the engine's bit-sliced L1
// against the scalar Ratings reference on generated instances.
func TestPlanesL1MatchesRatings(t *testing.T) {
	truth, _ := Generate(xrand.New(31), 24, 100, 6, 12, 9)
	for p := 0; p < len(truth); p++ {
		for q := p + 1; q < len(truth); q++ {
			want := Ratings(truth[p].Ints()).L1(Ratings(truth[q].Ints()))
			if got := truth[p].L1(truth[q]); got != want {
				t.Fatalf("bit-sliced L1(%d,%d) = %d, scalar %d", p, q, got, want)
			}
		}
	}
}

func TestGatherClone(t *testing.T) {
	a := Ratings{1, 2, 3, 4}
	g := a.Gather([]int{3, 0})
	if g[0] != 4 || g[1] != 1 {
		t.Fatalf("Gather = %v", g)
	}
	c := a.Clone()
	c[0] = 99
	if a[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

// TestSpotCheck pins the L1 selection's spot check: a lone candidate is
// returned without drawing or probing; otherwise every candidate is scored
// on the same min(m, 8·⌊ln n⌋) distinct objects, exactly those objects are
// charged, and the least total miss wins, ties to the lowest index.
func TestSpotCheck(t *testing.T) {
	const n, m, scale = 1000, 500, 5 // 8·⌊ln 1000⌋ = 48 checked objects

	w := NewWorld(newPlanes(n, m, bitvec.PlaneBits(scale)), scale) // all-zero truth
	rng := xrand.New(5)
	next := rng.Clone().Uint64()
	if got := spotCheck(w, 0, rng, []bitvec.Planes{bitvec.NewPlanes(m, 3)}); got != 0 {
		t.Fatalf("lone candidate: got %d", got)
	}
	if w.Probes(0) != 0 || rng.Clone().Uint64() != next {
		t.Fatalf("lone candidate: %d probes, stream moved %v", w.Probes(0), rng.Clone().Uint64() != next)
	}
	misses := []int{3, 1, 2, 1}
	col := make([]bitvec.Planes, len(misses))
	for ci, d := range misses {
		col[ci] = bitvec.FromInts(slices.Repeat([]int{d}, m), scale)
	}
	if got := spotCheck(w, 1, rng, col); got != 1 {
		t.Fatalf("spotCheck = %d, want 1 (least miss, lowest index)", got)
	}
	if w.Probes(1) != 48 {
		t.Fatalf("spot check charged %d objects, want 48", w.Probes(1))
	}
}
