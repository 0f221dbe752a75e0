// Package smallradius implements the SmallRadius protocol of Figure 1
// (from Alon, Awerbuch, Azar, Patt-Shamir [2,3]): collaborative scoring
// under the assumption that each player has at least n/B peers within
// Hamming distance D, for D up to about log n.
//
// Each of Θ(log n) repetitions randomly partitions the object set into
// s = Θ(D^{3/2}) groups. Within a group, a diameter-D cluster restricted to
// the group has expected diameter D/s < 1, i.e. it is almost always a
// zero-radius cluster, so ZeroRadius recovers the group's preferences. Each
// player selects the best group-vector with Select, concatenates across
// groups, and finally selects the best repetition (Theorem 5: error ≤ 5D).
package smallradius

import (
	"math"
	"math/bits"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/selection"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
	"collabscore/internal/zeroradius"
)

// Params carries the protocol's tunable constants. The paper's asymptotic
// constants make the polylog factors exceed n itself at laptop scale (see
// DESIGN.md §4); Scaled returns a parameterization that preserves the
// guarantee shapes at simulation sizes, while Paper returns the literal
// constants.
type Params struct {
	// Repeats is the number of independent repetitions (paper: Θ(log n)).
	Repeats int
	// SubsetScale and SubsetExp set the number of groups:
	// s = ⌈SubsetScale·D^SubsetExp⌉ (paper: 1·D^{3/2}). The structural
	// requirement is s ≳ D so that a diameter-D cluster restricted to one
	// group has diameter ≲ 1 — the zero-radius regime ZeroRadius needs.
	SubsetScale float64
	SubsetExp   float64
	// MinGroupObjects lowers s so that each group keeps at least this many
	// objects; tiny groups degenerate ZeroRadius to probe-everything.
	MinGroupObjects int
	// BudgetMultiplier is the factor on B passed to ZeroRadius (paper: 5).
	BudgetMultiplier int
	// SupportDivisor sets the group-vector support threshold n/(SupportDivisor·B)
	// (paper: 5).
	SupportDivisor float64
	// ZR configures the inner ZeroRadius runs.
	ZR zeroradius.Params
	// Sel configures the Select/RSelect calls.
	Sel selection.Params
}

// Paper returns the constants as stated in Figure 1.
func Paper(n int) Params {
	return Params{
		Repeats:          int(math.Ceil(math.Log2(float64(n) + 2))),
		SubsetScale:      1,
		SubsetExp:        1.5,
		MinGroupObjects:  1,
		BudgetMultiplier: 5,
		SupportDivisor:   5,
		ZR:               zeroradius.Defaults(),
		Sel:              selection.Defaults(),
	}
}

// Scaled returns simulation-friendly constants: fewer repetitions, fewer
// and larger groups, a small ZeroRadius base case, and tighter Select probe
// budgets, preserving the partition-then-zero-radius structure.
func Scaled(n int) Params {
	p := Paper(n)
	p.Repeats = 2
	p.SubsetScale = 1
	p.SubsetExp = 1 // s ≈ D: one expected intra-cluster difference per group
	p.MinGroupObjects = 16
	p.ZR = zeroradius.Scaled()
	p.Sel = selection.Scaled()
	return p
}

// groups partitions positions [0,len(objs)) into s groups using shared
// randomness, returning the group index of each position.
func (pr Params) numGroups(d, numObjs int) int {
	if d < 1 {
		d = 1
	}
	exp := pr.SubsetExp
	if exp == 0 {
		exp = 1.5
	}
	s := int(math.Ceil(pr.SubsetScale * math.Pow(float64(d), exp)))
	if s < 1 {
		s = 1
	}
	if pr.MinGroupObjects > 0 && s > numObjs/pr.MinGroupObjects {
		s = numObjs / pr.MinGroupObjects
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Run executes SmallRadius for all players over the objects objs (global
// ids), with diameter bound d and per-player budget b. It returns one
// output vector per player, indexed by player id, each indexed like objs.
// Honest players satisfying the small-radius assumption receive vectors
// within O(d) of their truth whp; dishonest players' entries hold the
// vectors they publish (their strategies' claims), which downstream steps
// treat as their z-vectors.
//
// Within each repetition the per-group ZeroRadius runs and the per-player
// select-and-concatenate loops fan out on rc's executor; group streams are
// split per (repetition, group) and player streams per player id, so
// fixed-seed output is byte-identical under any schedule (DESIGN.md §9).
func Run(rc *world.Run, objs []int, d, b int, shared *xrand.Stream, pr Params) []bitvec.Vector {
	n := rc.N()
	if b < 1 {
		b = 1
	}
	exec := rc.Exec()
	out := make([]bitvec.Vector, n)

	// Dishonest players publish claims; compute once.
	dishonest := rc.DishonestPlayers()
	exec.For(len(dishonest), func(i int) {
		p := dishonest[i]
		out[p] = rc.ReportVector(p, objs)
	})

	honest := rc.HonestPlayers()
	if len(objs) == 0 {
		for _, p := range honest {
			out[p] = bitvec.New(0)
		}
		return out
	}

	allPlayers := make([]int, n)
	for i := range allPlayers {
		allPlayers[i] = i
	}

	// reps[rep][i] is honest player honest[i]'s concatenated vector from
	// repetition rep.
	reps := make([][]bitvec.Vector, pr.Repeats)
	for rep := range reps {
		repRng := shared.Split(uint64(rep))
		s := pr.numGroups(d, len(objs))
		// A diameter-d cluster restricted to one of s random groups has
		// expected diameter d/s; that is the promise the per-group Select
		// works against.
		dGroup := (d + s - 1) / s
		if dGroup < 1 {
			dGroup = 1
		}

		// Shared random partition of objs into s groups.
		groupOf := make([]int, len(objs))
		for j := range groupOf {
			groupOf[j] = repRng.Intn(s)
		}
		groupPositions := make([][]int, s) // positions within objs
		for j, g := range groupOf {
			groupPositions[g] = append(groupPositions[g], j)
		}

		// Per-group ZeroRadius over all players, in parallel across groups.
		type groupResult struct {
			positions []int
			objs      []int           // global ids, computed once per group
			ui        []bitvec.Vector // supported candidate vectors
			outputs   []bitvec.Vector // by player id
		}
		results := par.MapOn(exec, s, func(g int) groupResult {
			positions := groupPositions[g]
			if len(positions) == 0 {
				return groupResult{}
			}
			groupObjs := make([]int, len(positions))
			for i, j := range positions {
				groupObjs[i] = objs[j]
			}
			zr := zeroradius.Run(rc, allPlayers, groupObjs, pr.BudgetMultiplier*b, repRng.Split(uint64(g)), pr.ZR)
			// U_g: vectors output by at least n/(SupportDivisor·B) players.
			ui := zeroradius.Supported(zr, float64(n)/(pr.SupportDivisor*float64(b)), 0)
			return groupResult{positions: positions, objs: groupObjs, ui: ui, outputs: zr}
		})

		// Each honest player selects a vector per group and concatenates.
		// The group object lists were computed once above (rebuilding them
		// per (player, group) is pure allocation), and the per-player
		// selection stream stays on the stack.
		reps[rep] = par.MapOn(exec, len(honest), func(i int) bitvec.Vector {
			p := honest[i]
			full := bitvec.New(len(objs))
			selRng := repRng.SplitValue(0xC0FFEE, uint64(p))
			for g := range results {
				res := &results[g]
				if len(res.positions) == 0 {
					continue
				}
				// With no supported candidate (assumption violated for
				// this group) the player keeps its own ZeroRadius output.
				chosen := res.outputs[p]
				if len(res.ui) > 0 {
					chosen = res.ui[selection.Select(rc.World, p, res.objs, res.ui, dGroup, &selRng, pr.Sel)]
				}
				// Scatter the chosen vector into full, one Set per set bit.
				for wi := 0; wi < chosen.Words(); wi++ {
					for x := chosen.Word(wi); x != 0; x &= x - 1 {
						full.Set(res.positions[wi*64+bits.TrailingZeros64(x)], true)
					}
				}
			}
			return full
		})
	}

	// Final per-player selection among the repetition candidates.
	exec.For(len(honest), func(i int) {
		p := honest[i]
		cands := make([]bitvec.Vector, len(reps))
		for rep := range reps {
			cands[rep] = reps[rep][i]
		}
		selRng := shared.SplitValue(0xF1A7, uint64(p))
		idx := selection.Select(rc.World, p, objs, cands, d, &selRng, pr.Sel)
		if idx < 0 {
			out[p] = bitvec.New(len(objs))
			return
		}
		out[p] = cands[idx]
	})
	return out
}
