package core

import (
	"slices"
	"testing"

	"collabscore/internal/adversary"
	"collabscore/internal/metrics"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// honestRun builds a planted instance, runs the honest-randomness protocol,
// and returns world + result.
func honestRun(t *testing.T, seed uint64, n, b, d int, narrow bool) (*world.World, *prefgen.Instance, *Result) {
	t.Helper()
	rng := xrand.New(seed)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, n/b, d)
	w := world.New(in.Truth)
	pr := Scaled(n, b)
	if narrow {
		pr.MinD, pr.MaxD = d, d
	}
	return w, in, Run(w, rng.Split(2), pr)
}

// TestHonestAccuracySingleGuess is Lemma 12 at the correct diameter guess:
// max honest error O(D).
func TestHonestAccuracySingleGuess(t *testing.T) {
	for _, cfg := range []struct{ n, b, d int }{
		{512, 8, 32},
		{1024, 8, 32},
		{1024, 16, 64},
	} {
		w, _, res := honestRun(t, uint64(cfg.n+cfg.d), cfg.n, cfg.b, cfg.d, true)
		es := metrics.Error(w, res.Output)
		if es.Max > 2*cfg.d {
			t.Fatalf("n=%d b=%d d=%d: max error %d > %d", cfg.n, cfg.b, cfg.d, es.Max, 2*cfg.d)
		}
	}
}

// TestHonestAccuracyFullLoop: the full doubling loop plus final RSelect
// must match the best single guess (the protocol never knows D).
func TestHonestAccuracyFullLoop(t *testing.T) {
	const n, b, d = 512, 8, 32
	w, _, res := honestRun(t, 77, n, b, d, false)
	es := metrics.Error(w, res.Output)
	if es.Max > 2*d {
		t.Fatalf("full loop max error %d > %d", es.Max, 2*d)
	}
	if len(res.Iterations) < 5 {
		t.Fatalf("doubling loop ran %d iterations", len(res.Iterations))
	}
}

// TestProbeSavingsAtScale: at the correct guess, per-player probes must be
// well below probing everything (the resource-augmentation claim).
func TestProbeSavingsAtScale(t *testing.T) {
	const n, b, d = 2048, 8, 64
	w, _, res := honestRun(t, 99, n, b, d, true)
	es := metrics.Error(w, res.Output)
	if es.Max > 2*d {
		t.Fatalf("max error %d > %d", es.Max, 2*d)
	}
	ps := metrics.Probes(w)
	if ps.Max > int64(n)/4 {
		t.Fatalf("max probes %d ≥ m/4 = %d", ps.Max, n/4)
	}
}

// TestIdenticalClustersNearExact: with zero planted diameter the protocol
// should recover preferences near-exactly.
func TestIdenticalClustersNearExact(t *testing.T) {
	const n, b = 512, 8
	rng := xrand.New(3)
	in := prefgen.IdenticalClusters(rng.Split(1), n, n, n/b)
	w := world.New(in.Truth)
	pr := Scaled(n, b)
	pr.MaxD = 8
	res := Run(w, rng.Split(2), pr)
	es := metrics.Error(w, res.Output)
	if es.Max > 4 {
		t.Fatalf("identical clusters: max error %d", es.Max)
	}
}

// byzRun corrupts f players with the given factory and runs the full
// Byzantine protocol at the correct diameter guess.
func byzRun(t *testing.T, seed uint64, n, b, d, f int, mk func(p int) world.Behavior) (*world.World, *Result) {
	t.Helper()
	rng := xrand.New(seed)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, n/b, d)
	w := world.New(in.Truth)
	pr := Scaled(n, b)
	pr.MinD, pr.MaxD = d, d
	adversary.Corrupt(w, f, rng.Split(7).Perm(n), mk)
	return w, RunByzantine(w, rng.Split(2), nil, pr)
}

// TestByzantineToleranceAllStrategies is the paper's headline claim
// (Theorem 14): with up to n/(3B) dishonest players, the honest error stays
// at the honest-run level for every attack strategy.
func TestByzantineToleranceAllStrategies(t *testing.T) {
	const n, b, d = 1024, 8, 32
	f := Scaled(n, b).MaxDishonest(n)
	strategies := map[string]func(p int) world.Behavior{
		"randomliar": func(p int) world.Behavior { return adversary.RandomLiar{Seed: 7} },
		"flipall":    func(p int) world.Behavior { return adversary.FlipAll{} },
		"colluder": func(p int) world.Behavior {
			return adversary.NewColluder(3, n)
		},
		"hijacker": func(p int) world.Behavior {
			return adversary.ClusterHijacker{Victim: (p + 1) % n}
		},
		"strange":   func(p int) world.Behavior { return adversary.StrangeObjectAttacker{Seed: 9} },
		"mimicflip": func(p int) world.Behavior { return adversary.MimicThenFlip{} },
		"zerospam":  func(p int) world.Behavior { return adversary.ZeroSpam{} },
		"flipflop":  func(p int) world.Behavior { return adversary.NewFlipflopper() },
		"combined": func(p int) world.Behavior {
			return adversary.Combined{Victim: (p + 1) % n, Seed: 0xC0}
		},
	}
	for name, mk := range strategies {
		w, res := byzRun(t, 5, n, b, d, f, mk)
		es := metrics.Error(w, res.Output)
		if es.Max > 2*d {
			t.Fatalf("%s at f=%d: max honest error %d > %d", name, f, es.Max, 2*d)
		}
	}
}

// TestByzantineElectsHonestLeaders: at tolerated corruption, most
// repetitions should elect honest leaders.
func TestByzantineElectsHonestLeaders(t *testing.T) {
	const n, b, d = 1024, 8, 32
	f := Scaled(n, b).MaxDishonest(n)
	w, res := byzRun(t, 11, n, b, d, f, func(p int) world.Behavior {
		return adversary.RandomLiar{Seed: 13}
	})
	_ = w
	if res.HonestLeaders == 0 {
		t.Fatal("no honest leader in any repetition")
	}
	if res.Repetitions != Scaled(n, b).ByzIterations {
		t.Fatalf("repetitions = %d", res.Repetitions)
	}
}

// TestByzantineBeyondToleranceDegrades: well past the tolerance the
// guarantees may fail — this documents the boundary rather than asserting
// failure, but the protocol must not panic and must still produce output.
func TestByzantineBeyondTolerance(t *testing.T) {
	const n, b, d = 512, 8, 32
	w, res := byzRun(t, 13, n, b, d, n/3, func(p int) world.Behavior {
		return adversary.RandomLiar{Seed: 17}
	})
	if len(res.Output) != n {
		t.Fatal("missing outputs")
	}
	_ = metrics.Error(w, res.Output) // must be computable
}

// TestDishonestOutputsZeroed: the result entries for dishonest players are
// all-zero vectors (their outputs are meaningless by definition).
func TestDishonestOutputsZeroed(t *testing.T) {
	const n, b, d = 512, 8, 32
	w, res := byzRun(t, 15, n, b, d, 10, func(p int) world.Behavior {
		return adversary.FlipAll{}
	})
	for _, p := range w.DishonestPlayers() {
		if res.Output[p].Count() != 0 {
			t.Fatalf("dishonest player %d has non-zero output", p)
		}
	}
}

// TestDeterminism: identical seeds → identical outputs, across the full
// protocol including the Byzantine wrapper.
func TestDeterminism(t *testing.T) {
	sig := func() int {
		rng := xrand.New(21)
		in := prefgen.DiameterClusters(rng.Split(1), 256, 256, 32, 16)
		w := world.New(in.Truth)
		pr := Scaled(256, 8)
		pr.MinD, pr.MaxD = 16, 16
		res := RunByzantine(w, rng.Split(2), nil, pr)
		total := 0
		for _, v := range res.Output {
			total += v.Count()
		}
		return total
	}
	if sig() != sig() {
		t.Fatal("protocol output nondeterministic")
	}
}

// TestDiameterGuesses covers the doubling-loop arithmetic.
func TestDiameterGuesses(t *testing.T) {
	pr := Scaled(64, 4)
	if gs, want := pr.DiameterGuesses(64), []int{1, 2, 4, 8, 16, 32, 64}; !slices.Equal(gs, want) {
		t.Fatalf("DiameterGuesses = %v, want %v", gs, want)
	}
	for _, c := range []struct {
		minD, maxD, top int
		want            []int
	}{
		{0, 0, 64, []int{1, 2, 4, 8, 16, 32, 64}},
		{8, 16, 64, []int{8, 16}},
		{0, 0, 100, []int{1, 2, 4, 8, 16, 32, 64}},
		{0, 0, 64 * 5, []int{1, 2, 4, 8, 16, 32, 64, 128, 256}}, // top = n·scale
		{8, 64, 64 * 5, []int{8, 16, 32, 64}},
		{100, 0, 64 * 5, []int{128, 256}},
		{100, 100, 64, []int{100}}, // out of doubling range: fallback
		{24, 24, 256, []int{24}},   // off-ladder fixed diameter: fallback
		{17, 31, 256, []int{17}},   // range holding no power of two
		{-3, 0, 4, []int{1, 2, 4}},
	} {
		if gs := Guesses(c.minD, c.maxD, c.top); !slices.Equal(gs, c.want) {
			t.Errorf("Guesses(%d, %d, %d) = %v, want %v", c.minD, c.maxD, c.top, gs, c.want)
		}
		pr.MinD, pr.MaxD = c.minD, c.maxD
		if gs := pr.DiameterGuesses(c.top); !slices.Equal(gs, c.want) {
			t.Errorf("DiameterGuesses(%d) with MinD..MaxD %d..%d = %v, want %v", c.top, c.minD, c.maxD, gs, c.want)
		}
	}
}

// TestParamHelpers sanity-checks the derived constants.
func TestParamHelpers(t *testing.T) {
	pr := Paper(1024, 8)
	if p := pr.SampleProb(1024, 1024); p <= 0 || p > 1 {
		t.Fatalf("SampleProb = %v", p)
	}
	if pr.SampleProb(1024, 1) != 1 {
		t.Fatal("tiny D should sample everything")
	}
	if pr.SampleDiameter(1024) <= 0 || pr.EdgeThreshold(1024) <= 0 {
		t.Fatal("non-positive derived constants")
	}
	if pr.Redundancy(1024) < 3 {
		t.Fatal("redundancy below minimum")
	}
	if pr.MaxDishonest(1024) != 1024/24 {
		t.Fatalf("MaxDishonest = %d", pr.MaxDishonest(1024))
	}
	if Scaled(1024, 8).MinClusterSize(1024) != 1024/8-1024/24 {
		t.Fatalf("MinClusterSize = %d", Scaled(1024, 8).MinClusterSize(1024))
	}
}

// TestMixtureInstanceRuns: the protocol must handle unstructured inputs
// (no planted clusters) without panicking; accuracy is input-dependent.
func TestMixtureInstanceRuns(t *testing.T) {
	rng := xrand.New(23)
	in := prefgen.Mixture(rng.Split(1), 256, 256)
	w := world.New(in.Truth)
	pr := Scaled(256, 8)
	pr.MinD = 16
	res := Run(w, rng.Split(2), pr)
	if len(res.Output) != 256 {
		t.Fatal("missing outputs")
	}
}

// TestDrawSample pins the sample helper: DrawSample caps the rate at 1 and
// never returns an empty sample.
func TestDrawSample(t *testing.T) {
	rng := xrand.New(5)
	if s := DrawSample(rng, 10, 5); len(s) != 10 {
		t.Fatalf("rate above 1: sample size %d, want all 10", len(s))
	}
	if s := DrawSample(rng, 10, 0); len(s) != 1 || s[0] != 0 {
		t.Fatalf("empty draw: sample %v, want [0]", s)
	}
}

// TestWeightedPick: the board share's capacity-weighted prober draw picks
// each index in proportion to its weight.
func TestWeightedPick(t *testing.T) {
	rng := xrand.New(13)
	// weights 1, 3 → cumulative [1, 4]; index 1 should win ~75%.
	counts := [2]int{}
	for i := 0; i < 10000; i++ {
		counts[weightedPick(rng, []int{1, 4})]++
	}
	frac := float64(counts[1]) / 10000
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("weighted pick fraction %.3f, want ≈0.75", frac)
	}
}
