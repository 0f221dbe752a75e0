package collabscore

// This file exposes the scenario point-runner: a declarative description of
// one fully specified simulation (population, planted structure, corruption,
// protocol variant) that builds and runs on fresh allocations. The internal
// sweep engine (internal/sweep) expands scenario grids and runs their points
// across a worker pool; see DESIGN.md §11.

import (
	"fmt"

	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

// Protocol names the runner a Scenario executes. The zero value is ProtoRun.
type Protocol int

// Available protocol variants; each corresponds to a Simulation Run method.
const (
	// ProtoRun executes CalculatePreferences with trusted shared
	// randomness (Simulation.Run).
	ProtoRun Protocol = iota
	// ProtoByzantine executes the full §7 protocol (Simulation.RunByzantine).
	ProtoByzantine
	// ProtoBaseline executes the Alon et al. prior-art baseline
	// (Simulation.RunBaseline).
	ProtoBaseline
	// ProtoProbeAll executes the probe-everything baseline
	// (Simulation.RunProbeAll).
	ProtoProbeAll
	// ProtoRandomGuess executes the zero-probe baseline
	// (Simulation.RunRandomGuess).
	ProtoRandomGuess
	// ProtoRatings executes the §8 non-binary protocol under the Byzantine
	// wrapper (RatingSimulation.RunByzantine): players rate on a 0..Scale
	// scale, similarity is L1, aggregation is by median. Requires a
	// cluster planting (ClusterSize > 0) and a rating-capable Strategy.
	ProtoRatings
	// ProtoBudgets executes the §8 heterogeneous-budget protocol
	// (Simulation.RunWithCapacities) with the scenario's two-tier capacity
	// vector (CapSmall/CapBig/CapBigFrac).
	ProtoBudgets
)

// String returns the protocol name used by grid specs and JSONL records.
func (p Protocol) String() string {
	switch p {
	case ProtoRun:
		return "run"
	case ProtoByzantine:
		return "byzantine"
	case ProtoBaseline:
		return "baseline"
	case ProtoProbeAll:
		return "probe-all"
	case ProtoRandomGuess:
		return "random-guess"
	case ProtoRatings:
		return "ratings"
	case ProtoBudgets:
		return "budgets"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// ParseProtocol is the inverse of Protocol.String.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range []Protocol{ProtoRun, ProtoByzantine, ProtoBaseline, ProtoProbeAll, ProtoRandomGuess, ProtoRatings, ProtoBudgets} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("collabscore: unknown protocol %q", s)
}

// ParseStrategy is the inverse of Strategy.String.
func ParseStrategy(s string) (Strategy, error) {
	for _, st := range []Strategy{RandomLiar, FlipAll, Colluders, ClusterHijackers, StrangeObjectAttackers, ZeroSpammers, Exaggerators, HarshShifters} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("collabscore: unknown strategy %q", s)
}

// Scenario fully describes one grid point: a Config plus planted structure,
// corruption, and the protocol variant to run. Running a Scenario is
// exactly equivalent to the fluent construction —
//
//	sim := NewSimulation(sc.Config)
//	sim.PlantClusters(sc.ClusterSize, sc.Diameter) // when ClusterSize > 0
//	sim.Corrupt(sc.Dishonest, sc.Strategy)         // when Dishonest > 0
//	rep := sim.RunByzantine()                      // per sc.Protocol
//
// — same seed, same report, byte for byte. The declarative form exists so
// scenario grids can be expanded, scheduled, serialized, and resumed by the
// sweep engine.
type Scenario struct {
	Config

	// ClusterSize/Diameter plant diameter-bounded clusters (PlantClusters)
	// when ClusterSize > 0.
	ClusterSize int
	Diameter    int

	// ZipfClusters/ZipfAlpha plant Zipf-sized clusters of diameter Diameter
	// (PlantZipf) when ZipfClusters > 0 and ClusterSize == 0.
	ZipfClusters int
	ZipfAlpha    float64

	// Dishonest players follow Strategy; 0 leaves everyone honest.
	Dishonest int
	Strategy  Strategy

	// Protocol selects the runner; the zero value is ProtoRun.
	Protocol Protocol

	// Scale is the rating scale of ProtoRatings points (ratings in
	// 0..Scale; 0 defaults to 5). Ignored by every other protocol.
	Scale int

	// CapSmall/CapBig/CapBigFrac describe the two-tier capacity vector of
	// ProtoBudgets points: a CapBigFrac fraction of players volunteer
	// CapBig probes and the rest CapSmall, assigned deterministically from
	// the scenario seed. Zero values default to m/32, m/2 and 0.25.
	// Ignored by every other protocol.
	CapSmall   int
	CapBig     int
	CapBigFrac float64
}

// ratingSimulation builds the scenario's RatingSimulation (ProtoRatings).
func (sc Scenario) ratingSimulation() *RatingSimulation {
	if sc.ClusterSize <= 0 {
		panic("collabscore: ProtoRatings requires a cluster planting (ClusterSize > 0)")
	}
	cfg := sc.Config
	rs := NewRatingSimulation(RatingConfig{
		Players:       cfg.Players,
		Objects:       cfg.Objects,
		Scale:         sc.Scale,
		Budget:        cfg.Budget,
		Seed:          cfg.Seed,
		FixedDiameter: cfg.FixedDiameter,
		TruthSource:   cfg.TruthSource,
	}, sc.ClusterSize, sc.Diameter)
	if sc.Dishonest > 0 {
		rs.Corrupt(sc.Dishonest, sc.Strategy)
	}
	return rs
}

// capacities resolves the scenario's two-tier capacity vector defaults
// against the resolved object count.
func (sc Scenario) capacities(m int) (small, big int, frac float64) {
	small, big, frac = sc.CapSmall, sc.CapBig, sc.CapBigFrac
	if small <= 0 {
		small = m / 32
		if small < 1 {
			small = 1
		}
	}
	if big <= 0 {
		big = m / 2
		if big < small {
			big = small
		}
	}
	if frac <= 0 {
		frac = 0.25
	}
	return small, big, frac
}

// ratingReport converts a rating run's report to the protocol-agnostic
// Report shape the sweep engine consumes. MaxError/MeanError carry the L1
// error; Outputs stay nil (rating rows live on RatingReport.Outputs).
func (sc Scenario) ratingReport(rr *RatingReport) *Report {
	return &Report{
		MaxError:      rr.MaxL1Error,
		MeanError:     rr.MeanL1Error,
		MaxProbes:     int64(rr.MaxProbes),
		MeanProbes:    rr.MeanProbes,
		TotalProbes:   rr.TotalProbes,
		OptDiameter:   sc.Diameter,
		HonestLeaders: rr.HonestLeaders,
		Repetitions:   rr.Repetitions,
	}
}

// simulation builds the scenario's Simulation. The RNG splits are identical
// to the fluent construction: Split is a pure read of the root stream, so
// skipping the uniform instance that NewSimulation would generate before
// planting changes no coins.
func (sc Scenario) simulation() *Simulation {
	cfg := sc.Config
	var spec prefgen.SourceSpec
	cfg.Objects, cfg.Budget, spec = resolveConfig(cfg.Players, cfg.Objects, cfg.Budget, cfg.TruthSource)
	s := &Simulation{cfg: cfg, rng: xrand.New(cfg.Seed), truth: spec}
	switch {
	case sc.ClusterSize > 0:
		s.PlantClusters(sc.ClusterSize, sc.Diameter)
	case sc.ZipfClusters > 0:
		s.PlantZipf(sc.ZipfClusters, sc.ZipfAlpha, sc.Diameter)
	default:
		s.plantUniform()
	}
	if sc.Dishonest > 0 {
		s.Corrupt(sc.Dishonest, sc.Strategy)
	}
	return s
}

// execute runs the scenario's protocol on the prepared simulation.
func (sc Scenario) execute(s *Simulation) *Report {
	switch sc.Protocol {
	case ProtoRun:
		return s.Run()
	case ProtoByzantine:
		return s.RunByzantine()
	case ProtoBaseline:
		return s.RunBaseline()
	case ProtoProbeAll:
		return s.RunProbeAll()
	case ProtoRandomGuess:
		return s.RunRandomGuess()
	case ProtoBudgets:
		small, big, frac := sc.capacities(s.cfg.Objects)
		return s.RunWithCapacities(s.TwoTierCapacities(small, big, frac))
	case ProtoRatings:
		panic("collabscore: ProtoRatings has no binary Simulation; use Scenario.Run")
	default:
		panic(fmt.Sprintf("collabscore: unknown protocol %v", sc.Protocol))
	}
}

// Run builds the scenario on fresh allocations, runs it, and returns its
// report. ProtoRatings points build a rating simulation, every other
// protocol the binary one.
func (sc Scenario) Run() *Report {
	if sc.Protocol == ProtoRatings {
		return sc.ratingReport(sc.ratingSimulation().RunByzantine(0))
	}
	return sc.execute(sc.simulation())
}

// Build constructs the scenario's configured Simulation — planted and
// corrupted, protocol not yet run. Most callers want Run; the sweep engine
// uses Build/Execute to measure the planted instance before running the
// protocol. ProtoRatings scenarios have no binary Simulation; use Run for
// those (Build panics rather than constructing a wrong-substrate world).
// The pl argument is ignored (pass nil); it is removed together with Pool.
func (sc Scenario) Build(pl *Pool) *Simulation {
	if sc.Protocol == ProtoRatings {
		panic("collabscore: ProtoRatings has no binary Simulation; use Scenario.Run")
	}
	return sc.simulation()
}

// Execute runs the scenario's protocol variant on a Simulation built by
// Build.
func (sc Scenario) Execute(s *Simulation) *Report { return sc.execute(s) }

// Pool runs scenarios. It holds no state: Pool.Run(sc) is sc.Run().
//
// Deprecated: use Scenario.Run. Pool stays only so the benchmark module
// (bench/layers.go) compiles, and is removed together with that replay.
type Pool struct{}

// NewPool returns a Pool.
//
// Deprecated: use Scenario.Run.
func NewPool() *Pool { return &Pool{} }

// Run is sc.Run().
//
// Deprecated: use Scenario.Run.
func (pl *Pool) Run(sc Scenario) *Report { return sc.Run() }
