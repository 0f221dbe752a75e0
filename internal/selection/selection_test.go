package selection

import (
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// buildWorld returns a world with n players over m objects and uniform
// random truth.
func buildWorld(seed uint64, n, m int) *world.World {
	in := prefgen.Uniform(xrand.New(seed), n, m)
	return world.New(in.Truth)
}

// identityObjs returns [0..m).
func identityObjs(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

// flipped returns v with k random bits flipped.
func flipped(v bitvec.Vector, rng *xrand.Stream, k int) bitvec.Vector {
	out := v.Clone()
	for _, i := range rng.Sample(v.Len(), k) {
		out.Flip(i)
	}
	return out
}

func TestRSelectEmptyAndSingle(t *testing.T) {
	w := buildWorld(1, 4, 64)
	objs := identityObjs(64)
	rng := xrand.New(2)
	if got := RSelect(w, 0, objs, nil, rng, Defaults()); got != -1 {
		t.Fatalf("empty candidates: got %d, want -1", got)
	}
	one := []bitvec.Vector{bitvec.New(64)}
	if got := RSelect(w, 0, objs, one, rng, Defaults()); got != 0 {
		t.Fatalf("single candidate: got %d, want 0", got)
	}
}

func TestRSelectPicksExactVector(t *testing.T) {
	// One candidate equals the player's truth exactly; others are far.
	w := buildWorld(3, 4, 512)
	objs := identityObjs(512)
	rng := xrand.New(4)
	truth := w.TruthVector(0)
	cands := []bitvec.Vector{
		flipped(truth, rng.Split(1), 200),
		truth.Clone(),
		flipped(truth, rng.Split(2), 250),
		truth.Clone().Not(),
	}
	idx := RSelect(w, 0, objs, cands, rng.Split(3), Defaults())
	if got := w.TruthVector(0).Hamming(cands[idx]); got != 0 {
		t.Fatalf("RSelect picked candidate at distance %d, want 0", got)
	}
}

func TestRSelectConstantFactorOfBest(t *testing.T) {
	// Best candidate is at distance 10; RSelect must return something
	// within a small constant factor of that (Theorem 3).
	const m = 1024
	w := buildWorld(5, 2, m)
	objs := identityObjs(m)
	for trial := uint64(0); trial < 20; trial++ {
		rng := xrand.New(100 + trial)
		truth := w.TruthVector(0)
		cands := []bitvec.Vector{
			flipped(truth, rng.Split(1), 400),
			flipped(truth, rng.Split(2), 10), // best
			flipped(truth, rng.Split(3), 300),
			flipped(truth, rng.Split(4), 500),
			flipped(truth, rng.Split(5), 250),
		}
		idx := RSelect(w, 0, objs, cands, rng.Split(6), Defaults())
		if d := truth.Hamming(cands[idx]); d > 60 {
			t.Fatalf("trial %d: RSelect output at distance %d, best is 10", trial, d)
		}
	}
}

func TestRSelectProbeComplexity(t *testing.T) {
	// Probes should be O(k² log n): verify they stay within the budget's
	// arithmetic for k candidates.
	const m = 4096
	const k = 8
	w := buildWorld(7, 2, m)
	objs := identityObjs(m)
	rng := xrand.New(8)
	truth := w.TruthVector(0)
	cands := make([]bitvec.Vector, k)
	for i := range cands {
		cands[i] = flipped(truth, rng.Split(uint64(i)), 50*(i+1))
	}
	RSelect(w, 0, objs, cands, rng.Split(99), Defaults())
	budget := pairBudget(Defaults().SampleFactor, w.N())
	maxProbes := int64(k * k * budget)
	if got := w.Probes(0); got > maxProbes {
		t.Fatalf("RSelect used %d probes, budget arithmetic allows %d", got, maxProbes)
	}
}

func TestSelectEmptyAndSingle(t *testing.T) {
	w := buildWorld(9, 2, 64)
	objs := identityObjs(64)
	rng := xrand.New(10)
	if got := Select(w, 0, objs, nil, 4, rng, Defaults().SelectBudget(w.N()), nil); got != -1 {
		t.Fatalf("empty candidates: got %d, want -1", got)
	}
	one := []bitvec.Vector{bitvec.New(64)}
	if got := Select(w, 0, objs, one, 4, rng, Defaults().SelectBudget(w.N()), nil); got != 0 {
		t.Fatalf("single candidate: got %d, want 0", got)
	}
}

func TestSelectHonorsDiameterPromise(t *testing.T) {
	// With the promise that one candidate is within d, the output must be
	// within (KeepWithin+1)·d whp.
	const m = 1024
	const d = 8
	pr := Defaults()
	for trial := uint64(0); trial < 20; trial++ {
		w := buildWorld(200+trial, 2, m)
		objs := identityObjs(m)
		rng := xrand.New(300 + trial)
		truth := w.TruthVector(0)
		cands := []bitvec.Vector{
			flipped(truth, rng.Split(1), 300),
			flipped(truth, rng.Split(2), d), // satisfies the promise
			flipped(truth, rng.Split(3), 400),
			flipped(truth, rng.Split(4), 200),
		}
		idx := Select(w, 0, objs, cands, d, rng.Split(5), pr.SelectBudget(w.N()), nil)
		bound := (pr.KeepWithin + 1) * d
		if got := truth.Hamming(cands[idx]); got > bound {
			t.Fatalf("trial %d: Select output at distance %d > bound %d", trial, got, bound)
		}
	}
}

func TestSelectSkipsCloseChallengers(t *testing.T) {
	// All candidates within KeepWithin·d of each other: Select must not
	// probe at all and return the incumbent.
	const m = 256
	const d = 20
	w := buildWorld(11, 2, m)
	objs := identityObjs(m)
	rng := xrand.New(12)
	truth := w.TruthVector(0)
	base := flipped(truth, rng.Split(1), 5)
	cands := []bitvec.Vector{
		base,
		flipped(base, rng.Split(2), 3),
		flipped(base, rng.Split(3), 2),
	}
	idx := Select(w, 0, objs, cands, d, rng.Split(4), Defaults().SelectBudget(w.N()), nil)
	if idx != 0 {
		t.Fatalf("Select = %d, want incumbent 0", idx)
	}
	if w.Probes(0) != 0 {
		t.Fatalf("Select probed %d objects for all-close candidates", w.Probes(0))
	}
}

func TestSelectLinearProbeComplexity(t *testing.T) {
	// Select runs k-1 duels, each within the duel budget.
	const m = 4096
	const k = 16
	const d = 4
	w := buildWorld(13, 2, m)
	objs := identityObjs(m)
	rng := xrand.New(14)
	truth := w.TruthVector(0)
	cands := make([]bitvec.Vector, k)
	for i := range cands {
		cands[i] = flipped(truth, rng.Split(uint64(i)), 100+30*i)
	}
	Select(w, 0, objs, cands, d, rng.Split(77), Defaults().SelectBudget(w.N()), nil)
	budget := pairBudget(Defaults().SelectSampleFactor, w.N())
	maxProbes := int64((k - 1) * budget)
	if got := w.Probes(0); got > maxProbes {
		t.Fatalf("Select used %d probes, linear budget is %d", got, maxProbes)
	}
}

func TestDuelEliminatesFarCandidate(t *testing.T) {
	const m = 512
	w := buildWorld(15, 2, m)
	objs := identityObjs(m)
	rng := xrand.New(16)
	truth := w.TruthVector(0)
	far := truth.Clone().Not()
	// truth vs its complement: truth must win every time.
	ctx := newDuelCtx(w, 0, objs)
	for i := 0; i < 10; i++ {
		if duel(&ctx, truth, far, rng.Split(uint64(i)), 20) != 0 {
			t.Fatal("truth lost a duel against its complement")
		}
		if duel(&ctx, far, truth, rng.Split(uint64(i+50)), 20) != 1 {
			t.Fatal("complement won a duel against truth")
		}
	}
}

func TestDuelKeepsBothWhenAmbiguous(t *testing.T) {
	// Two candidates equidistant from truth: the 2/3 rule should keep both
	// most of the time. Verify it never eliminates BOTH (impossible by
	// construction) and that identical vectors are kept.
	const m = 512
	w := buildWorld(17, 2, m)
	objs := identityObjs(m)
	truth := w.TruthVector(0)
	ctx := newDuelCtx(w, 0, objs)
	if duel(&ctx, truth, truth, xrand.New(18), 20) != -1 {
		t.Fatal("identical candidates should be kept")
	}
}

func TestDishonestCandidatesCannotHurtRSelect(t *testing.T) {
	// Candidate vectors may come from dishonest players, but RSelect probes
	// the player's own truth, so a perfect candidate still wins against
	// arbitrarily many junk candidates.
	const m = 1024
	w := buildWorld(19, 2, m)
	objs := identityObjs(m)
	rng := xrand.New(20)
	truth := w.TruthVector(0)
	cands := []bitvec.Vector{truth.Clone()}
	for i := 0; i < 9; i++ {
		cands = append(cands, flipped(truth, rng.Split(uint64(i)), 400+10*i))
	}
	idx := RSelect(w, 0, objs, cands, rng.Split(55), Defaults())
	if d := truth.Hamming(cands[idx]); d > 0 {
		t.Fatalf("junk candidates displaced the exact vector (distance %d)", d)
	}
}
