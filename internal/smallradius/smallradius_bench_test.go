package smallradius

import (
	"math"
	"testing"

	"collabscore/internal/adversary"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// BenchmarkSmallRadius times one SmallRadius run in the shape of the
// sample step of a Byzantine scenario at n = m = 2048: eight planted
// clusters of diameter D = 64, n/24 cluster hijackers, and the sample a
// D = 64 guess draws at simulation-scale constants — each object with
// probability ln n/D (about 240 objects), diameter bound ⌈2·ln n⌉ = 16 on
// it, budget B = 8 and Scaled params. Every iteration runs on a fresh
// world, so each one charges its probes from an empty ledger as a
// scenario does. Run it with -cpuprofile or -memprofile to see where
// SmallRadius spends its time and bytes:
//
//	go test -run '^$' -bench SmallRadius -benchmem -cpuprofile cpu.out ./internal/smallradius
func BenchmarkSmallRadius(b *testing.B) {
	const n, m, clusterSize, diameter, budget = 2048, 2048, 2048 / 8, 64, 8
	rng := xrand.New(2010)
	in := prefgen.DiameterClusters(rng.Split(1), n, m, clusterSize, diameter)
	lnN := math.Log(n)
	sample := rng.Split(2).BernoulliSubset(m, lnN/diameter)
	d := int(math.Ceil(2 * lnN))
	hijackers := rng.Split(3).Perm(n)[:n/24]
	pr := Scaled(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := world.New(in.Truth)
		adversary.Corrupt(w, len(hijackers), hijackers, func(p int) world.Behavior {
			return adversary.ClusterHijacker{Victim: (p + 1) % n}
		})
		rc := world.NewRun(w)
		rc.Pub.SetSample(sample)
		b.StartTimer()
		Run(rc, sample, d, budget, xrand.New(5), pr)
	}
}
