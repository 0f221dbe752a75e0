package experiments

import (
	"math"

	"collabscore/internal/adversary"
	"collabscore/internal/budgets"
	"collabscore/internal/core"
	"collabscore/internal/election"
	"collabscore/internal/metrics"
	"collabscore/internal/multival"
	"collabscore/internal/prefgen"
	"collabscore/internal/sweep"
	"collabscore/internal/tablefmt"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// expandGrid expands one sweep spec, panicking on spec errors (experiment
// grids are static; a bad one is a programming error).
func expandGrid(sp sweep.Spec) []sweep.Point {
	pts, err := sweep.Expand(sp)
	if err != nil {
		panic(err)
	}
	return pts
}

// runGrid executes grid points through the sweep engine.
func runGrid(pts []sweep.Point, opt sweep.Options) []sweep.Record {
	recs, err := sweep.Run(pts, opt)
	if err != nil {
		panic(err)
	}
	return recs
}

// filterRecs returns the records satisfying pred, in order.
func filterRecs(recs []sweep.Record, pred func(sweep.Record) bool) []sweep.Record {
	var out []sweep.Record
	for _, rec := range recs {
		if pred(rec) {
			out = append(out, rec)
		}
	}
	return out
}

// protoRecs filters the records of one protocol variant.
func protoRecs(recs []sweep.Record, proto string) []sweep.Record {
	return filterRecs(recs, func(r sweep.Record) bool { return r.Protocol == proto })
}

// runE7 sweeps n at fixed B and fixed planted diameter ratio, comparing the
// protocol's probe complexity (at the correct single guess) to the prior-art
// baseline and to probe-everything. The paper's claim: O(B·polylog n) vs
// O(B²·polylog n) vs n. The grid — one spec per n since cluster size and
// diameter track n, the protocol axis giving core and baseline the same
// planted worlds — runs through the sweep engine.
func runE7(cfg Config) *tablefmt.Table {
	t := header("E7 Lemmas 10–11 probe complexity", cfg,
		"n", "core max probes", "baseline max probes", "probe-all", "core/probe-all", "core max err", "D")
	ns := []int{512, 1024, 2048, 4096}
	if cfg.Quick {
		ns = []int{512, 1024}
	}
	var lists [][]sweep.Point
	for _, n := range ns {
		lists = append(lists, expandGrid(sweep.Spec{
			Seed: cfg.Seed, Trials: cfg.Trials,
			Players: []int{n}, Budgets: []int{cfg.B},
			ClusterSizes: []int{n / cfg.B}, Diameters: []int{n / 32}, FixDiameter: true,
			Protocols: []string{"run", "baseline"},
		}))
	}
	grid, err := sweep.Merge(lists...)
	if err != nil {
		panic(err)
	}
	recs := runGrid(grid, sweep.Options{})
	runRecs, basRecs := protoRecs(recs, "run"), protoRecs(recs, "baseline")
	for _, n := range ns {
		core := filterRecs(runRecs, func(r sweep.Record) bool { return r.Players == n })
		bas := filterRecs(basRecs, func(r sweep.Record) bool { return r.Players == n })
		coreProbes := sweep.MeanOf(core, func(r sweep.Record) float64 { return float64(r.MaxProbes) })
		basProbes := sweep.MeanOf(bas, func(r sweep.Record) float64 { return float64(r.MaxProbes) })
		coreErr := sweep.MeanOf(core, func(r sweep.Record) float64 { return float64(r.MaxError) })
		t.AddRow(n, coreProbes, basProbes, n, coreProbes/float64(n), coreErr, n/32)
	}
	return t
}

// runE8 sweeps the planted diameter D at fixed n, B and reports the honest
// error of the full protocol against the planted optimum: the
// constant-factor approximation of Lemma 12 / Definition 1. One declarative
// grid with a diameter axis; the engine computes the exact per-point
// optimum (Options.ComputeOpt).
func runE8(cfg Config) *tablefmt.Table {
	t := header("E8 Lemma 12 honest accuracy", cfg,
		"planted D", "exact opt", "max err", "mean err", "approx ratio", "max probes")
	n := cfg.N
	ds := []int{16, 32, 64, 128}
	if cfg.Quick {
		ds = []int{32}
	}
	recs := runGrid(expandGrid(sweep.Spec{
		Seed: cfg.Seed, Trials: cfg.Trials,
		Players: []int{n}, Budgets: []int{cfg.B},
		ClusterSizes: []int{n / cfg.B}, Diameters: ds, FixDiameter: true,
		Protocols: []string{"run"},
	}), sweep.Options{ComputeOpt: true})
	for _, d := range ds {
		d := d
		rs := filterRecs(recs, func(r sweep.Record) bool { return r.Diameter == d })
		t.AddRow(d,
			sweep.MeanOf(rs, func(r sweep.Record) float64 { return float64(r.OptError) }),
			sweep.MeanOf(rs, func(r sweep.Record) float64 { return float64(r.MaxError) }),
			sweep.MeanOf(rs, func(r sweep.Record) float64 { return r.MeanError }),
			sweep.MeanOf(rs, func(r sweep.Record) float64 {
				return metrics.ApproxRatio(float64(r.MaxError), float64(r.OptError))
			}),
			sweep.MeanOf(rs, func(r sweep.Record) float64 { return float64(r.MaxProbes) }))
	}
	return t
}

// runE9 sweeps the dishonest count f from 0 past the paper's tolerance
// n/(3B) for each attack strategy: the headline Byzantine-robustness table
// (Theorem 14). Below tolerance the error must match the honest run. The
// grid's dishonest × strategy axes share planted worlds point to point
// (sweep seed derivation excludes the corruption axes), so each row
// isolates the attack's effect; the honest row (f = 0) is the shared
// control the engine runs once.
func runE9(cfg Config) *tablefmt.Table {
	t := header("E9 Theorem 14 Byzantine tolerance", cfg,
		"strategy", "f", "f/tolerance", "max err", "mean err", "honest leaders")
	n := cfg.N
	const d = 32
	tol := core.Scaled(n, cfg.B).MaxDishonest(n)
	fracs := []float64{0, 0.5, 1, 2}
	if cfg.Quick {
		fracs = []float64{1}
	}
	var fs []int
	for _, frac := range fracs {
		fs = append(fs, int(frac*float64(tol)))
	}
	strategies := []string{"random-liar", "colluders", "cluster-hijackers", "strange-object"}
	recs := runGrid(expandGrid(sweep.Spec{
		Seed: cfg.Seed, Trials: cfg.Trials,
		Players: []int{n}, Budgets: []int{cfg.B},
		ClusterSizes: []int{n / cfg.B}, Diameters: []int{d}, FixDiameter: true,
		Dishonest: fs, Strategies: strategies,
		Protocols: []string{"byzantine"},
	}), sweep.Options{})
	row := func(name string, frac float64, rs []sweep.Record) {
		t.AddRow(name, int(frac*float64(tol)), frac,
			sweep.MeanOf(rs, func(r sweep.Record) float64 { return float64(r.MaxError) }),
			sweep.MeanOf(rs, func(r sweep.Record) float64 { return r.MeanError }),
			sweep.MeanOf(rs, func(r sweep.Record) float64 { return float64(r.HonestLeaders) }))
	}
	for _, name := range strategies {
		for _, frac := range fracs {
			f := int(frac * float64(tol))
			// The f = 0 control carries no strategy; it anchors every
			// strategy's series.
			rs := filterRecs(recs, func(r sweep.Record) bool {
				return r.Dishonest == f && (f == 0 || r.Strategy == name)
			})
			row(name, frac, rs)
		}
	}
	return t
}

// runE10 sweeps B comparing the protocol against the Alon et al. baseline:
// probes (B vs B² shape) and achieved approximation of the planted optimum
// (constant vs B-factor shape). One spec per B (cluster size tracks B),
// merged into a single engine run.
func runE10(cfg Config) *tablefmt.Table {
	t := header("E10 comparison vs prior art [2,3]", cfg,
		"B", "core probes", "AASP probes", "probe ratio", "core err", "AASP err", "planted D")
	n := cfg.N
	bs := []int{4, 8, 16}
	if cfg.Quick {
		bs = []int{8}
	}
	const d = 32
	var lists [][]sweep.Point
	for _, b := range bs {
		lists = append(lists, expandGrid(sweep.Spec{
			Seed: cfg.Seed, Trials: cfg.Trials,
			Players: []int{n}, Budgets: []int{b},
			ClusterSizes: []int{n / b}, Diameters: []int{d}, FixDiameter: true,
			Protocols: []string{"run", "baseline"},
		}))
	}
	grid, err := sweep.Merge(lists...)
	if err != nil {
		panic(err)
	}
	recs := runGrid(grid, sweep.Options{})
	runRecs, basRecs := protoRecs(recs, "run"), protoRecs(recs, "baseline")
	for _, b := range bs {
		core := filterRecs(runRecs, func(r sweep.Record) bool { return r.Budget == b })
		bas := filterRecs(basRecs, func(r sweep.Record) bool { return r.Budget == b })
		cp := sweep.MeanOf(core, func(r sweep.Record) float64 { return float64(r.MaxProbes) })
		bp := sweep.MeanOf(bas, func(r sweep.Record) float64 { return float64(r.MaxProbes) })
		ce := sweep.MeanOf(core, func(r sweep.Record) float64 { return float64(r.MaxError) })
		be := sweep.MeanOf(bas, func(r sweep.Record) float64 { return float64(r.MaxError) })
		t.AddRow(b, cp, bp, bp/math.Max(cp, 1), ce, be, d)
	}
	return t
}

// runE11 sweeps the dishonest fraction in Feige's lightest-bin election
// under the rushing greedy attack and the uniform null attack. The §7.1
// requirement is a constant honest-leader probability at the corruption
// levels the protocol tolerates.
func runE11(cfg Config) *tablefmt.Table {
	t := header("E11 Feige leader election", cfg,
		"dishonest frac", "greedy attack rate", "null attack rate", "elections")
	n := cfg.N
	if n > 1024 {
		n = 1024
	}
	fracs := []float64{0, 1.0 / 24, 1.0 / 12, 1.0 / 6, 1.0 / 3}
	if cfg.Quick {
		fracs = []float64{1.0 / 12}
	}
	elections := 200
	if cfg.Quick {
		elections = 50
	}
	for _, frac := range fracs {
		f := int(frac * float64(n))
		rng := xrand.New(cfg.Seed + uint64(f))
		in := prefgen.Uniform(rng.Split(1), n, 4)
		w := world.New(in.Truth)
		adversary.Corrupt(w, f, rng.Split(2).Perm(n), func(p int) world.Behavior {
			return adversary.RandomLiar{Seed: 0xE11}
		})
		greedy := election.HonestLeaderRate(w, rng.Split(3), election.GreedyLightest{}, election.Defaults(), elections)
		null := election.HonestLeaderRate(w, rng.Split(4), election.Spread{Seed: 5}, election.Defaults(), elections)
		t.AddRow(frac, greedy, null, elections)
	}
	return t
}

// runE12 exercises the §8 extensions: the non-binary (L1/median) protocol
// and the heterogeneous-budget protocol, checking both keep the O(D) error
// shape and that budgets shift load onto high-capacity players.
func runE12(cfg Config) *tablefmt.Table {
	t := header("E12 §8 extensions", cfg,
		"variant", "planted D", "max err", "bound", "max probes", "load ratio big/small")
	n := cfg.N / 2
	d := 32

	// Non-binary ratings.
	const scale = 5
	aggM := trialMeans(cfg.Trials, cfg.Seed+1, func(trial int, rng *xrand.Stream) map[string]float64 {
		truth, _ := multival.Generate(rng.Split(1), n, n, n/cfg.B, d, scale)
		w := multival.NewWorld(truth, scale)
		pr := multival.Scaled(n, cfg.B)
		pr.MinD, pr.MaxD = d, d
		res := multival.Run(w, rng.Split(2), pr)
		es := multival.ErrorStats(w, res.Output)
		return map[string]float64{"max": float64(es.Max), "probes": float64(w.MaxHonestProbes())}
	})
	t.AddRow("multival (L1, median)", d, aggM["max"], 3*d, aggM["probes"], "-")

	// Heterogeneous budgets, planted inside the diameter the binary
	// clustering can separate at n objects (core.Params.SeparableDiameter).
	pr := core.Scaled(n, cfg.B)
	db := min(d, pr.SeparableDiameter(n)/2)
	pr.MinD, pr.MaxD = db, db
	aggB := trialMeans(cfg.Trials, cfg.Seed+2, func(trial int, rng *xrand.Stream) map[string]float64 {
		in := prefgen.DiameterClusters(rng.Split(1), n, n, n/cfg.B, db)
		w := world.New(in.Truth)
		caps := budgets.TwoTier(rng.Split(3), n, 16, 256, 0.5)
		res := budgets.Run(w, rng.Split(2), pr, caps)
		es := metrics.Error(w, res.Output)
		var bigT, bigN, smallT, smallN float64
		for p := 0; p < n; p++ {
			if caps[p] == 256 {
				bigT += float64(w.Probes(p))
				bigN++
			} else {
				smallT += float64(w.Probes(p))
				smallN++
			}
		}
		ratio := (bigT / bigN) / math.Max(smallT/smallN, 1)
		return map[string]float64{
			"max": float64(es.Max), "probes": float64(metrics.Probes(w).Max), "ratio": ratio,
		}
	})
	t.AddRow("budgets (two-tier)", db, aggB["max"], 2*db, aggB["probes"], aggB["ratio"])
	return t
}
