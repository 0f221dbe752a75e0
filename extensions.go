package collabscore

// This file exposes the §8 extensions — non-binary rating scales and
// heterogeneous probe budgets — through the public API, wrapping the
// internal/multival and internal/budgets implementations. Both run on the
// same vectorized engine as the binary protocol (bit-plane ratings, CAS
// probe memos, par.Runner schedules; see DESIGN.md §12), and both are
// sweepable: Scenario runs them through ProtoRatings and ProtoBudgets, so
// grids can quantify over rating scales and capacity tiers like any other
// axis.

import (
	"fmt"

	"collabscore/internal/budgets"
	"collabscore/internal/multival"
	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

// RunWithCapacities executes the heterogeneous-budget variant of the
// protocol (§8): capacities[p] is the number of probes player p volunteers.
// Clusters form once their total capacity covers the shared probing work,
// and probing assignments are drawn proportionally to capacity, so each
// player's expected load tracks what it volunteered. The capacity slice
// must have one entry per player. The run takes every other constant from
// the simulation's parameters (Params(), including Config.PaperConstants),
// except the budget, which the mean capacity sets.
func (s *Simulation) RunWithCapacities(capacities []int) *Report {
	if len(capacities) != s.cfg.Players {
		panic(fmt.Sprintf("collabscore: %d capacities for %d players", len(capacities), s.cfg.Players))
	}
	s.w.ResetProbes()
	return s.report(budgets.Run(s.w, s.rng.Split(14), s.params, capacities))
}

// TwoTierCapacities builds a capacity vector where a bigFrac fraction of
// players volunteer bigCap probes and the rest smallCap, assigned
// deterministically from the simulation's seed.
func (s *Simulation) TwoTierCapacities(smallCap, bigCap int, bigFrac float64) []int {
	return budgets.TwoTier(s.rng.Split(15), s.cfg.Players, smallCap, bigCap, bigFrac)
}

// RatingConfig describes a non-binary (0..Scale) simulation (§8).
type RatingConfig struct {
	// Players and Objects mirror Config; Objects 0 defaults to Players.
	Players int
	Objects int
	// Scale is the maximum rating (ratings live in 0..Scale); 0 defaults
	// to 5, and NewRatingSimulation refuses a Scale above MaxScale.
	Scale int
	// Budget is the parameter B (clusters of ~Players/Budget users).
	Budget int
	// Seed drives all randomness.
	Seed uint64
	// FixedDiameter restricts the L1-diameter search to one guess (>0).
	FixedDiameter int
	// TruthSource selects the rating-matrix representation, mirroring
	// Config.TruthSource: "" or "dense" materializes the bit-sliced matrix,
	// "lazy" keeps only the cluster centers plus per-player sparse edits.
	// Any other value panics at construction. Both representations are
	// bit-identical. See DESIGN.md §14.
	TruthSource string
}

// RatingSimulation is the non-binary counterpart of Simulation: users rate
// objects on an integer scale, similarity is L1, and cluster aggregation
// uses medians (robust to extremist manipulation). It runs on the same
// vectorized engine as the binary protocol: ratings are bit-sliced into
// ⌈log₂(Scale+1)⌉ bit-planes and the probe memo charges through the same
// lock-free CAS path (DESIGN.md §12).
type RatingSimulation struct {
	cfg RatingConfig
	rng *xrand.Stream
	w   *multival.World
	pr  multival.Params
}

// NewRatingSimulation creates a rating-scale simulation with planted taste
// clusters of the given size and L1 diameter. It panics with
// Scenario.Validate's message on a config that cannot run.
func NewRatingSimulation(cfg RatingConfig, clusterSize, diameter int) *RatingSimulation {
	Scenario{Config: Config{Players: cfg.Players, Objects: cfg.Objects, Budget: cfg.Budget, TruthSource: cfg.TruthSource},
		ClusterSize: clusterSize, Diameter: diameter, Protocol: ProtoRatings, Scale: cfg.Scale}.mustValidate()
	var spec prefgen.SourceSpec
	cfg.Objects, cfg.Budget, spec = resolveConfig(cfg.Players, cfg.Objects, cfg.Budget, cfg.TruthSource)
	if cfg.Scale == 0 {
		cfg.Scale = 5
	}
	rng := xrand.New(cfg.Seed)
	var src multival.RatingSource
	if spec.IsDense() {
		truth, _ := multival.Generate(rng.Split(1), cfg.Players, cfg.Objects, clusterSize, diameter, cfg.Scale)
		src = multival.NewDensePlanes(truth)
	} else {
		src, _ = multival.LazyGenerate(rng.Split(1), cfg.Players, cfg.Objects, clusterSize, diameter, cfg.Scale)
	}
	pr := multival.Scaled(cfg.Players, cfg.Budget)
	if cfg.FixedDiameter > 0 {
		pr.MinD, pr.MaxD = cfg.FixedDiameter, cfg.FixedDiameter
	}
	w := multival.NewWorldFrom(src, cfg.Scale)
	return &RatingSimulation{cfg: cfg, rng: rng, w: w, pr: pr}
}

// Corrupt makes k randomly chosen raters dishonest with the given
// strategy's rating-scale behavior. Only rating-capable strategies apply
// (Strategy.RatingCapable): RandomLiar reports consistent random ratings,
// FlipAll mirrors the scale (scale − truth), ZeroSpammers always rate 0,
// Exaggerators rate at the extremes, HarshShifters shift truth down by
// half the scale.
func (rs *RatingSimulation) Corrupt(k int, strat Strategy) *RatingSimulation {
	mk := strat.row().rating
	if mk == nil {
		panic(strat.noBehavior(true))
	}
	b := mk(rs.cfg.Seed, rs.cfg.Scale)
	perm := rs.rng.Split(2).Perm(rs.cfg.Players)
	for i := 0; i < k && i < len(perm); i++ {
		rs.w.SetBehavior(perm[i], b)
	}
	return rs
}

// Tolerance returns the dishonesty tolerance n/(3B).
func (rs *RatingSimulation) Tolerance() int {
	return rs.cfg.Players / (3 * rs.cfg.Budget)
}

// Params exposes the resolved rating-protocol parameters (mutable before
// Run), including the phase-schedule flags shared with core.Params.
func (rs *RatingSimulation) Params() *multival.Params { return &rs.pr }

// World exposes the underlying rating world for advanced use.
func (rs *RatingSimulation) World() *multival.World { return rs.w }

// RatingReport summarizes a rating-scale run.
type RatingReport struct {
	// MaxL1Error / MeanL1Error measure |w(p) − v(p)|₁ over honest raters.
	MaxL1Error  int
	MeanL1Error float64
	// MaxProbes is the worst per-rater probe count; MeanProbes the honest
	// average and TotalProbes the system-wide total.
	MaxProbes   int
	MeanProbes  float64
	TotalProbes int64
	// HonestLeaders / Repetitions report election outcomes (Byzantine runs).
	HonestLeaders int
	Repetitions   int
	// CommWrites / CommReads account the bulletin-board traffic of the
	// work-sharing phases, as Report's do.
	CommWrites int64
	CommReads  int64
	// NumClusters holds the per-diameter-guess cluster counts of the run
	// (for Byzantine runs: of the last honest-leader repetition; empty when
	// every leader was dishonest).
	NumClusters []int
	// Outputs holds the predicted rating vectors (one row per player,
	// values in 0..Scale).
	Outputs [][]int
}

// Run executes the generalized protocol with trusted shared coins.
func (rs *RatingSimulation) Run() *RatingReport {
	rs.w.ResetProbes()
	return rs.report(multival.Run(rs.w, rs.rng.Split(10), rs.pr))
}

// RunByzantine executes the leader-election wrapper with the given number
// of repetitions (≤0 defaults to 5). The wrapper itself is the generic §7
// skeleton shared with the binary protocol (core.RunByzantineOver).
func (rs *RatingSimulation) RunByzantine(repetitions int) *RatingReport {
	return rs.report(rs.runByzantine(repetitions))
}

// runByzantine runs the wrapper and returns its raw result, for callers
// that summarize it themselves (Scenario.Run).
func (rs *RatingSimulation) runByzantine(repetitions int) *multival.Result {
	if repetitions <= 0 {
		repetitions = 5
	}
	rs.w.ResetProbes()
	return multival.RunByzantine(rs.w, rs.rng.Split(11), nil, repetitions, rs.pr)
}

// summary is the protocol-agnostic Report of a finished rating run:
// MaxError/MeanError carry the L1 error, and Outputs stay nil, so it never
// decodes the n·m output ratings. Scenario.Run returns it as is;
// RatingSimulation.report adds the decoded rows.
func (rs *RatingSimulation) summary(res *multival.Result) *Report {
	es := multival.ErrorStats(rs.w, res.Output)
	return &Report{
		MaxError:      es.Max,
		MeanError:     es.Mean,
		MaxProbes:     rs.w.MaxHonestProbes(),
		MeanProbes:    rs.w.MeanHonestProbes(),
		TotalProbes:   rs.w.TotalProbes(),
		HonestLeaders: res.HonestLeaders,
		Repetitions:   res.Repetitions,
		CommWrites:    res.BoardWrites,
		CommReads:     res.BoardReads,
	}
}

func (rs *RatingSimulation) report(res *multival.Result) *RatingReport {
	s := rs.summary(res)
	rows := make([][]int, len(res.Output))
	for p, r := range res.Output {
		rows[p] = r.Ints()
	}
	var clusters []int
	for _, it := range res.Iterations {
		clusters = append(clusters, it.NumClusters)
	}
	return &RatingReport{
		MaxL1Error:    s.MaxError,
		MeanL1Error:   s.MeanError,
		MaxProbes:     int(s.MaxProbes),
		MeanProbes:    s.MeanProbes,
		TotalProbes:   s.TotalProbes,
		HonestLeaders: s.HonestLeaders,
		Repetitions:   s.Repetitions,
		CommWrites:    s.CommWrites,
		CommReads:     s.CommReads,
		NumClusters:   clusters,
		Outputs:       rows,
	}
}
