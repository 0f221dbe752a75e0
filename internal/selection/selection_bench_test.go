package selection

import (
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/xrand"
)

// BenchmarkRSelect times full tournaments on the word-block streaming duel,
// over the shapes the protocol actually runs:
//
//   - final4096: the final whole-vector selection — identity mapping over a
//     large object set, simulation-scale probe budgets (Scaled), duels
//     dominated by the XOR walks.
//   - group512: the per-group Select regime at the paper's constants
//     (Defaults, budget ≈ 50) — a group-sized object set where most duel
//     cost is probe traffic, which the streaming duel collapses 64 objects
//     per memo CAS.
//   - strided512x7: group512's shape through the general (non-identity)
//     object mapping, exercising the wordProber batching.
//
// Sub-benchmark names match the stream rows of the historical
// BENCH_PR10.json snapshot.
func BenchmarkRSelect(b *testing.B) {
	shapes := []struct {
		name string
		objs []int
		pr   Params
	}{
		{"final4096", identityObjs(4096), Scaled()},
		{"group512", identityObjs(512), Defaults()},
		{"strided512x7", stridedObjs(512, 7), Defaults()},
	}
	for _, sh := range shapes {
		worldM := sh.objs[len(sh.objs)-1] + 1
		w := buildWorld(19, 4096, worldM)
		truth := w.TruthVector(0).Gather(sh.objs)
		rng := xrand.New(23)
		m := len(sh.objs)
		// Candidate distances span the regimes: equal, below budget, and a
		// ramp of far candidates up to m/2 (a wrong-cluster vector).
		var cands []bitvec.Vector
		for _, flips := range []int{0, 3, m / 64, m / 10, m / 6, m / 4, m / 3, m / 2} {
			cands = append(cands, flipped(truth, rng.Split(uint64(flips)), flips))
		}
		b.Run(sh.name+"/stream", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RSelect(w, 0, sh.objs, cands, xrand.New(55), sh.pr)
			}
		})
	}
}

// BenchmarkSelectGroup times one SmallRadius per-group Select: Scaled
// params (budget 12 at n = 2048), about 32 objects spread over a
// 2048-object world — about one object per world word, so every probe is
// its own word through the general mapping — and 8 candidates, the
// nearest first so the far ones duel the incumbent. Players rotate, so
// the first pass over them installs their memos and later passes re-probe
// known objects, as the repetitions of SmallRadius do.
func BenchmarkSelectGroup(b *testing.B) {
	const n, worldM = 2048, 2048
	objs := groupObjs(29, 32, worldM)
	w := buildWorld(31, n, worldM)
	truth := w.TruthVector(0).Gather(objs)
	rng := xrand.New(37)
	m := len(objs)
	var cands []bitvec.Vector
	for _, flips := range []int{1, m / 2, m / 3, 3, m / 2, m / 4, m / 2, m / 3} {
		cands = append(cands, flipped(truth, rng.Split(uint64(len(cands))), flips))
	}
	bud := Scaled().SelectBudget(n)
	for i := 0; b.Loop(); i++ {
		Select(w, i%n, objs, cands, 1, rng, bud, nil)
	}
}
