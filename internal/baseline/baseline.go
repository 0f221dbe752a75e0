// Package baseline implements the comparison algorithms the paper measures
// itself against (§1, §4):
//
//   - AASP: the prior state of the art of Alon, Awerbuch, Azar and
//     Patt-Shamir [2,3] ("Tell me who I am"), which runs the
//     diameter-doubling loop with SmallRadius directly on the full object
//     set. It needs O(B²·polylog n) probes and achieves only a
//     B-approximation of the optimal error, and it has no defense against
//     dishonest players.
//   - ProbeAll: every player probes every object (the trivial optimum,
//     n probes each).
//   - RandomGuess: no probes, expected error m/2 per player.
//   - Opt: the information-theoretic reference of Definition 1, computed
//     from planted ground truth.
package baseline

import (
	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/selection"
	"collabscore/internal/smallradius"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// AASPParams configures the [2,3]-style baseline.
type AASPParams struct {
	B   int
	SR  smallradius.Params
	Sel selection.Params
	// MinD/MaxD restrict the doubling loop as in core.Params.
	MinD, MaxD int
}

// AASPScaled returns simulation-scale parameters matching core.Scaled.
func AASPScaled(n, b int) AASPParams {
	return AASPParams{B: b, SR: smallradius.Scaled(n), Sel: selection.Defaults()}
}

// AASP runs the prior-work baseline: for each diameter guess D (doubling),
// run SmallRadius over the entire object set with that diameter, then
// RSelect among the resulting candidates. Its probe cost carries the full
// D^{3/2} partition factor on all n objects for every guess, which is where
// the B² (rather than B) dependence of [2,3] shows up.
func AASP(w *world.World, shared *xrand.Stream, pr AASPParams) []bitvec.Vector {
	n, m := w.N(), w.M()
	rc := world.NewRun(w)
	allObjs := make([]int, m)
	for i := range allObjs {
		allObjs[i] = i
	}
	lo, hi := pr.MinD, pr.MaxD
	if lo <= 0 {
		lo = 1
	}
	if hi <= 0 {
		hi = n
	}
	var candidates [][]bitvec.Vector // [diameter guess][player]
	for d := 1; d <= n; d *= 2 {
		if d < lo || d > hi {
			continue
		}
		candidates = append(candidates, smallradius.Run(rc, allObjs, d, pr.B, shared.Split(uint64(len(candidates))), pr.SR))
	}
	out := make([]bitvec.Vector, n)
	par.For(n, func(p int) {
		if !w.IsHonest(p) || len(candidates) == 0 {
			out[p] = bitvec.New(m)
			return
		}
		cands := make([]bitvec.Vector, len(candidates))
		for ci := range candidates {
			cands[ci] = candidates[ci][p]
		}
		rng := shared.Split(0xBA5E, uint64(p))
		out[p] = cands[selection.RSelect(w, p, allObjs, cands, rng, pr.Sel)]
	})
	return out
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
	// Precompute exact diameters per planted cluster.
	diam := make(map[int]int)
	for c := range in.Centers {
		members := in.ClusterMembers(c)
		d := 0
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if h := in.Truth[members[i]].Hamming(in.Truth[members[j]]); h > d {
					d = h
				}
			}
		}
		diam[c] = d
	}
	for p := 0; p < n; p++ {
		if c := in.ClusterOf[p]; c >= 0 {
			out[p] = diam[c]
		}
	}
	return out
}
