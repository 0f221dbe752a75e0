// Package baseline implements the comparison algorithms the paper measures
// itself against (§1, §4):
//
//   - AASP: the prior state of the art of Alon, Awerbuch, Azar and
//     Patt-Shamir [2,3] ("Tell me who I am"), which runs the
//     diameter-doubling loop with SmallRadius directly on the full object
//     set. It needs O(B²·polylog n) probes and achieves only a
//     B-approximation of the optimal error, and it has no defense against
//     dishonest players. It is core's binary protocol with every guess on
//     §6.1's easy path (AASPScaled), so it shares core's loop and RSelect.
//   - ProbeAll: every player probes every object (the trivial optimum,
//     n probes each).
//   - RandomGuess: no probes, expected error m/2 per player.
//   - Opt: the information-theoretic reference of Definition 1, computed
//     from planted ground truth.
package baseline

import (
	"math"

	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/core"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/selection"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// AASPScaled returns the [2,3]-style baseline's parameters: core.Scaled
// with an infinite SmallDThreshold, so every diameter guess runs
// SmallRadius on the full object set, and the default RSelect constants.
// The baseline is core.Run under them: for each diameter guess D
// (doubling), SmallRadius over the entire object set with that diameter,
// then RSelect among the resulting candidates. Its probe cost carries the
// full D^{3/2} partition factor on all n objects for every guess, which is
// where the B² (rather than B) dependence of [2,3] shows up.
func AASPScaled(n, b int) core.Params {
	pr := core.Scaled(n, b)
	pr.SmallDThreshold = math.Inf(1)
	pr.Sel = selection.Defaults()
	return pr
}

// ProbeAll has every honest player probe every object and output the truth
// — the B = Ω(n/log n) easy case of §6.1 — a full word at a time.
func ProbeAll(w *world.World) []bitvec.Vector {
	n, m := w.N(), w.M()
	out := make([]bitvec.Vector, n)
	par.For(n, func(p int) {
		v := bitvec.New(m)
		if w.IsHonest(p) {
			for wi := 0; wi < w.ProbeWords(); wi++ {
				v.SetWord(wi, w.ProbeWord(p, wi, ^uint64(0)))
			}
		}
		out[p] = v
	})
	return out
}

// RandomGuess outputs an independent uniform vector per player, using no
// probes. Its expected per-player error is m/2 — the floor any algorithm
// must beat.
func RandomGuess(w *world.World, rng *xrand.Stream) []bitvec.Vector {
	n, m := w.N(), w.M()
	out := make([]bitvec.Vector, n)
	for p := 0; p < n; p++ {
		v := bitvec.New(m)
		r := rng.Split(uint64(p))
		for o := 0; o < m; o++ {
			if r.Bool() {
				v.Set(o, true)
			}
		}
		out[p] = v
	}
	return out
}

// OptErrors returns, for each player, the reference error level of
// Definition 1 computed from planted structure: the exact diameter of the
// player's planted cluster (0 for players in no cluster — they could in
// principle be predicted perfectly only by probing, so the reference is
// the planted diameter when available, else 0).
func OptErrors(in *prefgen.Instance) []int {
	n := in.N()
	out := make([]int, n)
	diam := make([]int, len(in.Centers))
	for c := range diam {
		diam[c] = cluster.Diameter(in.Truth, in.ClusterMembers(c))
	}
	for p := 0; p < n; p++ {
		if c := in.ClusterOf[p]; c >= 0 {
			out[p] = diam[c]
		}
	}
	return out
}
