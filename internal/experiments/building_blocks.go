package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/core"
	"collabscore/internal/metrics"
	"collabscore/internal/prefgen"
	"collabscore/internal/selection"
	"collabscore/internal/smallradius"
	"collabscore/internal/tablefmt"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
	"collabscore/internal/zeroradius"
)

func identityObjs(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

// runE1 builds the Claim 2 adversarial distribution and measures, on the
// distinguished player p₀:
//
//   - an idealized strict-B-budget collaborative predictor (it receives the
//     exact majority vector of p₀'s group for free and even knows the
//     special set S, spending all B probes there): its error must sit at or
//     above the D/4 lower bound — the claim's mechanism in action;
//   - the paper's protocol with its augmented O(B·polylog n) budget, which
//     may legitimately beat D/4 (resource augmentation is exactly the
//     paper's point: the bound binds budget-B algorithms only);
//   - random guessing on p₀ as the no-information floor.
func runE1(cfg Config) *tablefmt.Table {
	t := header("E1 Claim 2 lower-bound instance", cfg,
		"D", "bound D/4", "B-budget err(p0)", "augmented err(p0)", "random err(p0)")
	n := cfg.N
	ds := []int{16, 32, 64}
	if cfg.Quick {
		ds = []int{32}
	}
	// The Claim 2 instance needs D < m/4 (m = n here): skip the diameters
	// that do not fit and name them in the title.
	var skipped []string
	for _, d := range ds {
		if d >= n/4 {
			skipped = append(skipped, strconv.Itoa(d))
			continue
		}
		agg := trialMeans(cfg.Trials, cfg.Seed+uint64(d), func(trial int, rng *xrand.Stream) map[string]float64 {
			in, special := prefgen.AdversarialClaim2(rng.Split(1), n, n, cfg.B, d)
			p0 := in.ClusterMembers(0)[0]

			// Idealized B-budget predictor: start from the group majority
			// (perfect collaboration — correct off S, uninformative on S),
			// then spend the whole budget B probing objects of S.
			w1 := world.New(in.Truth)
			members := in.ClusterMembers(0)
			pred := bitvec.New(n)
			for o := 0; o < n; o++ {
				ones := 0
				for _, q := range members {
					if q != p0 && w1.PeekTruth(q, o) {
						ones++
					}
				}
				pred.Set(o, 2*ones > len(members)-1)
			}
			budgeted := rng.Split(5).SampleFrom(special, cfg.B)
			for _, o := range budgeted {
				pred.Set(o, w1.Probe(p0, o))
			}
			bBudgetErr := w1.HonestError(p0, pred)

			// The augmented-budget protocol.
			w2 := world.New(in.Truth)
			pr := core.Scaled(n, cfg.B)
			res := core.Run(w2, rng.Split(2), pr)
			augErr := w2.HonestError(p0, res.Output[p0])

			// Random guessing.
			guess := bitvec.New(n)
			g := rng.Split(3)
			for o := 0; o < n; o++ {
				if g.Bool() {
					guess.Set(o, true)
				}
			}
			return map[string]float64{
				"budget": float64(bBudgetErr),
				"aug":    float64(augErr),
				"guess":  float64(w1.HonestError(p0, guess)),
			}
		})
		t.AddRow(d, float64(d)/4, agg["budget"], agg["aug"], agg["guess"])
	}
	if len(skipped) > 0 {
		t.Title += fmt.Sprintf(" — skipped D=%s: Claim 2 needs D < m/4 = %d", strings.Join(skipped, ","), n/4)
	}
	return t
}

// runE2 measures Lemma 6 directly: draw the sample set at the protocol's
// rate and compare sampled difference counts for planted close pairs
// (distance < D) and far pairs (distance ≥ 3D) against the lemma's
// thresholds.
func runE2(cfg Config) *tablefmt.Table {
	t := header("E2 Lemma 6 sample concentration", cfg,
		"D", "|S|", "close max", "close bound", "far min", "far bound", "separated")
	n := cfg.N
	pr := core.Scaled(n, cfg.B)
	ds := []int{32, 64, 128}
	if cfg.Quick {
		ds = []int{64}
	}
	for _, d := range ds {
		agg := trialMeans(cfg.Trials, cfg.Seed+uint64(d), func(trial int, rng *xrand.Stream) map[string]float64 {
			in := prefgen.DiameterClusters(rng.Split(1), n, n, n/cfg.B, d)
			sample := rng.Split(2).BernoulliSubset(n, pr.SampleProb(n, d))
			closeMax, farMin := 0, math.MaxInt
			// Close pairs: same planted cluster. Far pairs: different
			// clusters (distance ≈ m/2 ≥ 3D for the sizes used here).
			for c := 0; c < 4; c++ {
				members := in.ClusterMembers(c)
				for i := 0; i < 6 && i < len(members); i++ {
					for j := i + 1; j < 6 && j < len(members); j++ {
						diff := in.Truth[members[i]].Gather(sample).Hamming(in.Truth[members[j]].Gather(sample))
						if diff > closeMax {
							closeMax = diff
						}
					}
				}
				other := in.ClusterMembers((c + 1) % len(in.Centers))
				for i := 0; i < 6 && i < len(members) && i < len(other); i++ {
					diff := in.Truth[members[i]].Gather(sample).Hamming(in.Truth[other[i]].Gather(sample))
					if diff < farMin {
						farMin = diff
					}
				}
			}
			sep := 0.0
			if farMin > closeMax {
				sep = 1
			}
			return map[string]float64{
				"s": float64(len(sample)), "close": float64(closeMax),
				"far": float64(farMin), "sep": sep,
			}
		})
		lnn := math.Log(float64(n))
		closeBound := 2 * pr.SampleFactor * lnn // Lemma 6(1) analogue at scaled constants
		farBound := pr.EdgeFactor * lnn         // the edge threshold the clustering uses
		t.AddRow(d, agg["s"], agg["close"], closeBound, agg["far"], farBound,
			agg["sep"])
	}
	return t
}

// runE3 sweeps the number of RSelect candidates k, planting one candidate
// at distance d* and junk at ≥10·d*: the output must stay within a small
// constant of d* (Theorem 3) with probes bounded by the k²·log n sample
// arithmetic.
func runE3(cfg Config) *tablefmt.Table {
	t := header("E3 Theorem 3 RSelect", cfg,
		"k", "best dist", "output dist", "ratio", "probes", "k²·ln n")
	n := cfg.N
	ks := []int{2, 4, 8, 16}
	if cfg.Quick {
		ks = []int{4}
	}
	const dStar = 16
	for _, k := range ks {
		agg := trialMeans(cfg.Trials, cfg.Seed+uint64(k), func(trial int, rng *xrand.Stream) map[string]float64 {
			in := prefgen.Uniform(rng.Split(1), 2, n)
			w := world.New(in.Truth)
			truth := w.TruthVector(0)
			cands := make([]bitvec.Vector, k)
			for i := range cands {
				c := truth.Clone()
				flips := dStar
				if i != k/2 {
					flips = 10*dStar + 16*i
				}
				for _, o := range rng.Split(uint64(10+i)).Sample(n, flips) {
					c.Flip(o)
				}
				cands[i] = c
			}
			idx := selection.RSelect(w, 0, identityObjs(n), cands, rng.Split(2), selection.Defaults())
			out := truth.Hamming(cands[idx])
			return map[string]float64{
				"out":    float64(out),
				"ratio":  float64(out) / float64(dStar),
				"probes": float64(w.Probes(0)),
			}
		})
		t.AddRow(k, dStar, agg["out"], agg["ratio"], agg["probes"],
			float64(k*k)*math.Log(float64(n)))
	}
	return t
}

// runE4 sweeps the ZeroRadius cluster bound B' over planted identical
// clusters: exact-recovery fraction and probe counts vs the O(B'·log n)
// budget and the probe-all cost m.
func runE4(cfg Config) *tablefmt.Table {
	t := header("E4 Theorem 4 ZeroRadius", cfg,
		"B'", "cluster size", "exact frac", "max probes", "B'·ln n", "m")
	n := cfg.N / 2
	m := cfg.N * 2
	bs := []int{2, 4, 8}
	if cfg.Quick {
		bs = []int{2}
	}
	for _, b := range bs {
		agg := trialMeans(cfg.Trials, cfg.Seed+uint64(b), func(trial int, rng *xrand.Stream) map[string]float64 {
			in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
			w := world.New(in.Truth)
			out, _ := zeroradius.Run(world.NewRun(w), identityObjs(n), identityObjs(m), b, rng.Split(2), zeroradius.Scaled())
			exact := 0
			for p := 0; p < n; p++ {
				if in.Truth[p].Hamming(out[p]) == 0 {
					exact++
				}
			}
			return map[string]float64{
				"exact":  float64(exact) / float64(n),
				"probes": float64(w.MaxHonestProbes()),
			}
		})
		t.AddRow(b, n/b, agg["exact"], agg["probes"],
			float64(b)*math.Log(float64(n)), m)
	}
	return t
}

// runE5 sweeps the planted diameter D for SmallRadius and reports max error
// against the 5D bound of Theorem 5.
func runE5(cfg Config) *tablefmt.Table {
	t := header("E5 Theorem 5 SmallRadius", cfg,
		"D", "max err", "bound 5D", "mean err", "max probes", "m")
	n := cfg.N / 2
	m := cfg.N / 2
	ds := []int{2, 4, 8, 16}
	if cfg.Quick {
		ds = []int{8}
	}
	for _, d := range ds {
		agg := trialMeans(cfg.Trials, cfg.Seed+uint64(d), func(trial int, rng *xrand.Stream) map[string]float64 {
			in := prefgen.DiameterClusters(rng.Split(1), n, m, n/cfg.B, d)
			w := world.New(in.Truth)
			out := smallradius.Run(world.NewRun(w), identityObjs(m), d, cfg.B, rng.Split(2), smallradius.Scaled(n))
			var errs []int
			for p := 0; p < n; p++ {
				errs = append(errs, in.Truth[p].Hamming(out[p]))
			}
			es := metrics.Summarize(errs)
			return map[string]float64{
				"max": float64(es.Max), "mean": es.Mean,
				"probes": float64(w.MaxHonestProbes()),
			}
		})
		t.AddRow(d, agg["max"], 5*d, agg["mean"], agg["probes"], m)
	}
	return t
}

// runE6 instruments one protocol iteration: z-vector quality on the sample,
// neighbor separation, and the Lemma 9 cluster invariants.
func runE6(cfg Config) *tablefmt.Table {
	t := header("E6 Lemmas 7–9 clustering", cfg,
		"D", "|S|", "z err max", "clusters", "min size", "size bound", "max diam", "diam/D")
	n := cfg.N
	pr := core.Scaled(n, cfg.B)
	ds := []int{32, 64}
	if cfg.Quick {
		ds = []int{32}
	}
	for _, d := range ds {
		agg := trialMeans(cfg.Trials, cfg.Seed+uint64(d), func(trial int, rng *xrand.Stream) map[string]float64 {
			in := prefgen.DiameterClusters(rng.Split(1), n, n, n/cfg.B, d)
			w := world.New(in.Truth)
			sample := rng.Split(2).BernoulliSubset(n, pr.SampleProb(n, d))
			if len(sample) == 0 {
				sample = []int{0}
			}
			z := smallradius.Run(world.NewRun(w), sample, pr.SampleDiameter(n), cfg.B, rng.Split(3), pr.SR)
			zErrMax := 0
			for p := 0; p < n; p++ {
				if e := in.Truth[p].Gather(sample).Hamming(z[p]); e > zErrMax {
					zErrMax = e
				}
			}
			g := cluster.BuildGraph(z, pr.EdgeThreshold(n))
			cl := cluster.Build(g, pr.MinClusterSize(n))
			maxDiam := 0
			for _, members := range cl.Clusters {
				if dd := cluster.Diameter(in.Truth, members); dd > maxDiam {
					maxDiam = dd
				}
			}
			return map[string]float64{
				"s": float64(len(sample)), "zerr": float64(zErrMax),
				"clusters": float64(len(cl.Clusters)),
				"minsize":  float64(cl.MinClusterSize()),
				"diam":     float64(maxDiam),
			}
		})
		t.AddRow(d, agg["s"], agg["zerr"], agg["clusters"],
			agg["minsize"], pr.MinClusterSize(n), agg["diam"],
			agg["diam"]/float64(d))
	}
	return t
}
