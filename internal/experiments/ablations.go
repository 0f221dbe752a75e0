package experiments

import (
	"collabscore/internal/adversary"
	"collabscore/internal/core"
	"collabscore/internal/metrics"
	"collabscore/internal/prefgen"
	"collabscore/internal/tablefmt"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Ablations returns the design-choice sweeps (A1–A4). They are not paper
// claims; they quantify how each protocol knob buys its guarantee, and they
// justify the Scaled constants documented in DESIGN.md §4.
func Ablations() []Experiment {
	return []Experiment{
		{"A1", "Work-share redundancy", "Θ(log n) probers per object: below ~1/ln n the Byzantine majority flips", runA1},
		{"A2", "Edge threshold", "Lemma 8 window: too tight → no clusters, too loose → merged clusters", runA2},
		{"A3", "Byzantine repetitions", "Θ(log n) election repeats: failure probability decays geometrically", runA3},
		{"A4", "Sample rate", "Lemma 6 window: the sample must be large enough to separate clusters", runA4},
	}
}

// AllWithAblations returns claim experiments followed by ablations.
func AllWithAblations() []Experiment { return append(All(), Ablations()...) }

// runA1 sweeps the redundancy factor (probers per object) with
// tolerance-level corruption: accuracy holds until the majority loses its
// Chernoff margin.
func runA1(cfg Config) *tablefmt.Table {
	t := header("A1 redundancy ablation", cfg,
		"redundancy factor", "probers/object", "max err (byz)", "mean err (byz)")
	n, d := cfg.N, 32
	factors := []float64{0.25, 0.5, 1.5, 3}
	if cfg.Quick {
		factors = []float64{0.5, 1.5}
	}
	for _, rf := range factors {
		agg := trialMeans(cfg.Trials, cfg.Seed+uint64(rf*100), func(trial int, rng *xrand.Stream) map[string]float64 {
			in := prefgen.DiameterClusters(rng.Split(1), n, n, n/cfg.B, d)
			w := world.New(in.Truth)
			pr := core.Scaled(n, cfg.B)
			pr.RedundancyFactor = rf
			pr.MinD, pr.MaxD = d, d
			f := pr.MaxDishonest(n)
			adversary.Corrupt(w, f, rng.Split(7).Perm(n), func(p int) world.Behavior {
				return adversary.StrangeObjectAttacker{Seed: 0xA1}
			})
			res := core.Run(w, rng.Split(2), pr)
			es := metrics.Error(w, res.Output)
			return map[string]float64{"max": float64(es.Max), "mean": es.Mean}
		})
		t.AddRow(rf, core.Params{RedundancyFactor: rf}.Redundancy(n), agg["max"], agg["mean"])
	}
	return t
}

// runA2 sweeps the neighbor-graph edge threshold around the Lemma 8 window.
func runA2(cfg Config) *tablefmt.Table {
	t := header("A2 edge-threshold ablation", cfg,
		"edge factor", "threshold", "clusters", "unassigned", "max err")
	n, d := cfg.N, 32
	factors := []float64{1, 2, 4, 8, 16}
	if cfg.Quick {
		factors = []float64{2, 4}
	}
	for _, ef := range factors {
		agg := trialMeans(cfg.Trials, cfg.Seed+uint64(ef), func(trial int, rng *xrand.Stream) map[string]float64 {
			in := prefgen.DiameterClusters(rng.Split(1), n, n, n/cfg.B, d)
			w := world.New(in.Truth)
			pr := core.Scaled(n, cfg.B)
			pr.EdgeFactor = ef
			pr.MinD, pr.MaxD = d, d
			res := core.Run(w, rng.Split(2), pr)
			es := metrics.Error(w, res.Output)
			var clusters, unassigned float64
			if len(res.Iterations) > 0 {
				clusters = float64(res.Iterations[0].NumClusters)
				unassigned = float64(res.Iterations[0].Unassigned)
			}
			return map[string]float64{
				"max": float64(es.Max), "clusters": clusters, "un": unassigned,
			}
		})
		pr := core.Scaled(n, cfg.B)
		pr.EdgeFactor = ef
		t.AddRow(ef, pr.EdgeThreshold(n), agg["clusters"], agg["un"], agg["max"])
	}
	return t
}

// runA3 sweeps the number of Byzantine repetitions: the probability that
// every repetition had a dishonest leader (and the run fails completely)
// decays geometrically, visible as the tail max error.
func runA3(cfg Config) *tablefmt.Table {
	t := header("A3 Byzantine repetition ablation", cfg,
		"repetitions", "runs", "failed runs", "max err (worst run)")
	n, d := cfg.N, 32
	reps := []int{1, 2, 3, 5}
	if cfg.Quick {
		reps = []int{1, 3}
	}
	runs := 10
	if cfg.Quick {
		runs = 4
	}
	for _, k := range reps {
		failed := 0
		worst := 0
		for trial := 0; trial < runs; trial++ {
			rng := xrand.New(cfg.Seed + uint64(k*1000+trial))
			in := prefgen.DiameterClusters(rng.Split(1), n, n, n/cfg.B, d)
			w := world.New(in.Truth)
			pr := core.Scaled(n, cfg.B)
			pr.ByzIterations = k
			pr.MinD, pr.MaxD = d, d
			f := pr.MaxDishonest(n)
			adversary.Corrupt(w, f, rng.Split(7).Perm(n), func(p int) world.Behavior {
				return adversary.RandomLiar{Seed: 0xA3}
			})
			res := core.RunByzantine(w, rng.Split(2), nil, pr)
			es := metrics.Error(w, res.Output)
			if res.HonestLeaders == 0 {
				failed++
			}
			if es.Max > worst {
				worst = es.Max
			}
		}
		t.AddRow(k, runs, failed, worst)
	}
	return t
}

// runA4 sweeps the sample-rate factor: too small a sample cannot separate
// close from far pairs (Lemma 6) and clustering degrades.
func runA4(cfg Config) *tablefmt.Table {
	t := header("A4 sample-rate ablation", cfg,
		"sample factor", "|S|", "clusters", "max err")
	n, d := cfg.N, 64
	factors := []float64{0.1, 0.25, 0.5, 1, 2}
	if cfg.Quick {
		factors = []float64{0.25, 1}
	}
	for _, sf := range factors {
		agg := trialMeans(cfg.Trials, cfg.Seed+uint64(sf*100), func(trial int, rng *xrand.Stream) map[string]float64 {
			in := prefgen.DiameterClusters(rng.Split(1), n, n, n/cfg.B, d)
			w := world.New(in.Truth)
			pr := core.Scaled(n, cfg.B)
			pr.SampleFactor = sf
			pr.MinD, pr.MaxD = d, d
			res := core.Run(w, rng.Split(2), pr)
			es := metrics.Error(w, res.Output)
			var s, clusters float64
			if len(res.Iterations) > 0 {
				s = float64(res.Iterations[0].SampleSize)
				clusters = float64(res.Iterations[0].NumClusters)
			}
			return map[string]float64{"max": float64(es.Max), "s": s, "clusters": clusters}
		})
		t.AddRow(sf, agg["s"], agg["clusters"], agg["max"])
	}
	return t
}
