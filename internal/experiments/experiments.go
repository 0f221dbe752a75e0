// Package experiments contains the reproduction harness: one experiment per
// formal claim of the paper (the paper is theoretical and has no empirical
// tables, so its theorems and lemmas are the artifacts to regenerate — see
// DESIGN.md §5 for the mapping; cmd/experiments prints the tables).
//
// Each experiment builds planted-instance worlds, runs protocols, and
// returns an ASCII table with the measured quantities next to the bound the
// paper claims. Experiments are deterministic given Config.Seed.
package experiments

import (
	"fmt"

	"collabscore/internal/metrics"
	"collabscore/internal/tablefmt"
	"collabscore/internal/xrand"
)

// Config scales an experiment run.
type Config struct {
	// N is the base player count (experiments may sweep around it).
	N int
	// B is the base budget parameter.
	B int
	// Trials is the number of independent repetitions per configuration.
	Trials int
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks sweeps for smoke-testing.
	Quick bool
}

// Experiment is one reproducible claim-check.
type Experiment struct {
	// ID is the experiment identifier (E1..E13).
	ID string
	// Title is a short human-readable name.
	Title string
	// Claim cites the paper artifact being reproduced.
	Claim string
	// Run executes the experiment and returns its result table.
	Run func(cfg Config) *tablefmt.Table
}

// All lists every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Lower bound instance", "Claim 2: any B-budget algorithm errs ≥ D/4 on the adversarial distribution", runE1},
		{"E2", "Sample concentration", "Lemma 6: close pairs stay close and far pairs stay far on the sample set", runE2},
		{"E3", "RSelect", "Theorem 3: output within O(best candidate distance) using O(k² log n) probes", runE3},
		{"E4", "ZeroRadius", "Theorem 4: exact recovery for identical clusters with O(B' log n) probes", runE4},
		{"E5", "SmallRadius", "Theorem 5: error ≤ 5D for diameter-D clusters", runE5},
		{"E6", "Clustering", "Lemmas 7–9: neighbor graph separates clusters; peeled clusters have size ≥ threshold and diameter O(D)", runE6},
		{"E7", "Probe complexity scaling", "Lemmas 10–11: probes grow polylogarithmically in n while probe-all grows linearly", runE7},
		{"E8", "Honest accuracy", "Lemma 12: max honest error O(D) — constant-factor approximation of the planted optimum", runE8},
		{"E9", "Byzantine tolerance", "Lemma 13 + Theorem 14: no accuracy loss up to n/(3B) dishonest players, any strategy", runE9},
		{"E10", "Comparison vs prior art", "§1/§4: fewer probes and better approximation than the Alon et al. baseline", runE10},
		{"E11", "Leader election", "§7.1 (Feige): honest leader with constant probability under rushing bin-stuffing", runE11},
		{"E12", "§8 extensions", "Non-binary ratings (L1 + median) and heterogeneous budgets keep the O(D) error shape", runE12},
		{"E13", "§8 conjecture", "Per-player error tracks the distance to the n/B-th closest peer (conjectured per-distribution bound)", runE13},
	}
}

// ByID returns the experiment (or ablation) with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range AllWithAblations() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// header builds a table titled with the experiment metadata.
func header(e string, cfg Config, cols ...string) *tablefmt.Table {
	title := fmt.Sprintf("%s (n=%d, B=%d, trials=%d, seed=%d)", e, cfg.N, cfg.B, cfg.Trials, cfg.Seed)
	return tablefmt.New(title, cols...)
}

// trialMeans runs k independent trials, trial i on xrand.New(seed).Split(i),
// one at a time — the protocols inside a trial already use every core — and
// returns the mean of each named measurement over the trials that report it.
func trialMeans(k int, seed uint64, fn func(trial int, rng *xrand.Stream) map[string]float64) map[string]float64 {
	root := xrand.New(seed)
	byName := map[string][]float64{}
	for i := 0; i < k; i++ {
		for name, v := range fn(i, root.Split(uint64(i))) {
			byName[name] = append(byName[name], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = metrics.Mean(xs)
	}
	return out
}
