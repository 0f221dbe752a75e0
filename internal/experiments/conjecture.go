package experiments

import (
	"sort"

	"collabscore/internal/core"
	"collabscore/internal/metrics"
	"collabscore/internal/prefgen"
	"collabscore/internal/tablefmt"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// runE13 probes the open conjecture of §8: "for every distribution of
// preferences, a player p can do no better than, say, the median distance
// to the closest n/B others". We compute, per player, the exact distance
// to its (n/B)-th closest peer (the radius of the tightest candidate
// cluster around p — a per-player, per-distribution difficulty measure)
// and compare the protocol's per-player error against it, on both planted
// and mixture (non-clustered) distributions.
//
// Two readings come out of the table: (i) achieved error stays within a
// small multiple of the per-player radius wherever the radius is within
// the separable regime — the protocol tracks per-player difficulty, not
// just the worst case; (ii) no player beats the radius by a large factor,
// consistent with the conjectured lower bound.
func runE13(cfg Config) *tablefmt.Table {
	t := header("E13 §8 conjecture: per-player difficulty", cfg,
		"instance", "median radius", "max radius", "median err", "max err", "err/radius p90")
	n := cfg.N / 2 // the exact radius computation is O(n²·m/64)
	b := cfg.B
	type instanceGen struct {
		name string
		gen  func(rng *xrand.Stream) *prefgen.Instance
	}
	gens := []instanceGen{
		{"planted D=16", func(rng *xrand.Stream) *prefgen.Instance {
			return prefgen.DiameterClusters(rng, n, n, n/b, 16)
		}},
		{"planted D=32", func(rng *xrand.Stream) *prefgen.Instance {
			return prefgen.DiameterClusters(rng, n, n, n/b, 32)
		}},
		{"zipf clusters", func(rng *xrand.Stream) *prefgen.Instance {
			return prefgen.ZipfClusters(rng, n, n, b, 1.1, 16)
		}},
		{"block structured", func(rng *xrand.Stream) *prefgen.Instance {
			return prefgen.BlockStructured(rng, n, n, b, 8, 0.95)
		}},
	}
	if cfg.Quick {
		gens = gens[:1]
	}
	for _, g := range gens {
		g := g
		agg := trialMeans(cfg.Trials, cfg.Seed+uint64(len(g.name)), func(trial int, rng *xrand.Stream) map[string]float64 {
			in := g.gen(rng.Split(1))
			w := world.New(in.Truth)

			// Exact per-player radius: distance to the (n/B)-th closest.
			radius := perPlayerRadius(in, n/b-1)

			pr := core.Scaled(n, b)
			pr.MinD = 8
			res := core.Run(w, rng.Split(2), pr)
			errs := metrics.Errors(w, res.Output)

			ratios := make([]float64, len(errs))
			for i, e := range errs {
				ratios[i] = metrics.ApproxRatio(float64(e), float64(radius[i]))
			}
			sort.Float64s(ratios)
			sortedR := append([]int(nil), radius...)
			sort.Ints(sortedR)
			es := metrics.Summarize(errs)
			return map[string]float64{
				"medr": float64(sortedR[len(sortedR)/2]),
				"maxr": float64(sortedR[len(sortedR)-1]),
				"mede": float64(es.Median),
				"maxe": float64(es.Max),
				"p90":  ratios[len(ratios)*9/10],
			}
		})
		t.AddRow(g.name, agg["medr"], agg["maxr"], agg["mede"],
			agg["maxe"], agg["p90"])
	}
	return t
}

// perPlayerRadius returns, for each player, the Hamming distance to its
// k-th closest other player (callers pass k = n/B − 1: Definition 1's set
// contains p itself) — the tightest possible cluster radius around p, the
// difficulty measure of the §8 conjecture.
func perPlayerRadius(in *prefgen.Instance, k int) []int {
	n := in.N()
	out := make([]int, n)
	if k >= n {
		k = n - 1
	}
	for p := 0; p < n; p++ {
		dists := make([]int, 0, n-1)
		for q := 0; q < n; q++ {
			if q == p {
				continue
			}
			dists = append(dists, in.Truth[p].Hamming(in.Truth[q]))
		}
		sort.Ints(dists)
		if k-1 >= 0 && k-1 < len(dists) {
			out[p] = dists[k-1]
		}
	}
	return out
}
