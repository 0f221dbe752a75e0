package zeroradius

import (
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// BenchmarkCrossFill times one ZeroRadius merge's cross-fill in the shape
// SmallRadius gives it at n = 2048: 1024 honest learners, 1024 published
// vectors over 10 objects drawn from 80 distinct ones, and B' = 28, so the
// top 2B' = 56 of them are the candidates every learner eliminates among.
// Learners' truths are uniform, so most match no candidate and walk a full
// elimination path. Serial, to time the per-learner work alone.
func BenchmarkCrossFill(b *testing.B) {
	const n, m, k, bPrime = 1024, 640, 10, 28
	rng := xrand.New(61)
	in := prefgen.Uniform(rng.Split(1), n, m)
	rc := world.NewRunOn(world.New(in.Truth), par.Serial())
	objs := rng.Sample(m, k)
	pool := make([]bitvec.Vector, 80)
	for i := range pool {
		pool[i] = bitvec.New(k)
		for j := 0; j < k; j++ {
			pool[i].Set(j, rng.Bool())
		}
	}
	pub := make([]bitvec.Vector, n)
	for i := range pub {
		pub[i] = pool[rng.Intn(len(pool))]
	}
	learners := identityObjs(n)
	z := &zr{rc: rc, bPrime: bPrime, learned: newLearned(n, k)}
	pos := identityObjs(k)
	for b.Loop() {
		z.crossFill(learners, learners, objs, pos, pub)
	}
}
