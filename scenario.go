package collabscore

// This file exposes the scenario point-runner: a declarative description of
// one fully specified simulation (population, planted structure, corruption,
// protocol variant) that builds and runs on fresh allocations. The internal
// sweep engine (internal/sweep) expands scenario grids and runs their points
// across a worker pool; see DESIGN.md §11.

import (
	"errors"
	"fmt"

	"collabscore/internal/cluster"
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

// protocolTable declares each Protocol once: its name, used by grid specs
// and JSONL records, and its runner on a built binary Simulation (nil for
// ProtoRatings, which has none). String, ParseProtocol and Execute read it.
var protocolTable = [...]struct {
	name string
	run  func(sc Scenario, s *Simulation) *Report
}{
	ProtoRun:         {"run", on((*Simulation).Run)},
	ProtoByzantine:   {"byzantine", on((*Simulation).RunByzantine)},
	ProtoBaseline:    {"baseline", on((*Simulation).RunBaseline)},
	ProtoProbeAll:    {"probe-all", on((*Simulation).RunProbeAll)},
	ProtoRandomGuess: {"random-guess", on((*Simulation).RunRandomGuess)},
	ProtoRatings:     {"ratings", nil},
	ProtoBudgets:     {"budgets", Scenario.runBudgets},
}

// on adapts a Simulation run method to a protocolTable runner.
func on(run func(*Simulation) *Report) func(Scenario, *Simulation) *Report {
	return func(_ Scenario, s *Simulation) *Report { return run(s) }
}

// known reports whether p is a declared protocol.
func (p Protocol) known() bool { return p >= 0 && int(p) < len(protocolTable) }

// String returns the protocol name used by grid specs and JSONL records.
func (p Protocol) String() string {
	if !p.known() {
		return fmt.Sprintf("protocol(%d)", int(p))
	}
	return protocolTable[p].name
}

// ParseProtocol is the inverse of Protocol.String.
func ParseProtocol(name string) (Protocol, error) {
	for p, r := range protocolTable {
		if r.name == name {
			return Protocol(p), nil
		}
	}
	return 0, fmt.Errorf("collabscore: unknown protocol %q", name)
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
	// 0..Scale; 0 defaults to 5, at most MaxScale). Ignored by every other
	// protocol.
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

// MaxScale is the largest rating scale a ProtoRatings scenario accepts.
// A rating takes ⌈log₂(Scale+1)⌉ bit-planes (at most 32) in every truth
// row, candidate and board lane, and the board's median tally costs the
// square of that per lane word, so MaxScale's 16 planes bound both far
// beyond any rating system instead of letting a huge scale fail inside
// the run.
const MaxScale = 1<<16 - 1

// Validate reports why the scenario cannot run, or nil when it can. It
// holds every rule the public layer checks: NewSimulation,
// NewRatingSimulation, Build, Run and Execute panic with its message. A
// cluster size above Players is not among them; planting panics on it.
func (sc Scenario) Validate() error {
	switch {
	case sc.Players < 1:
		return errors.New("collabscore: Players must be ≥ 1")
	case sc.Objects < 0:
		return fmt.Errorf("collabscore: Objects must be ≥ 0 (0 defaults to Players), got %d", sc.Objects)
	case sc.Budget < 0:
		return fmt.Errorf("collabscore: Budget must be ≥ 0 (0 defaults to 8), got %d", sc.Budget)
	case !sc.Protocol.known():
		return fmt.Errorf("collabscore: unknown protocol %v", sc.Protocol)
	}
	ratings := sc.Protocol == ProtoRatings
	if ratings && sc.ClusterSize <= 0 {
		return errors.New("collabscore: ProtoRatings requires a cluster planting (ClusterSize > 0)")
	}
	if ratings && (sc.Scale < 0 || sc.Scale > MaxScale) {
		return fmt.Errorf("collabscore: Scale must be in [0, %d] (0 defaults to 5), got %d", MaxScale, sc.Scale)
	}
	if sc.Dishonest > 0 && (ratings && !sc.Strategy.RatingCapable() || !ratings && !sc.Strategy.BinaryCapable()) {
		return errors.New(sc.Strategy.noBehavior(ratings))
	}
	if _, err := prefgen.ParseSourceSpec(sc.TruthSource); err != nil {
		return fmt.Errorf("collabscore: %v", err)
	}
	if _, err := cluster.ParseIndexSpec(sc.NeighborIndex); err != nil {
		return fmt.Errorf("collabscore: %v", err)
	}
	return nil
}

// mustValidate panics with Validate's message when the scenario cannot run.
func (sc Scenario) mustValidate() {
	if err := sc.Validate(); err != nil {
		panic(err.Error())
	}
}

// noBehavior is the message refusing a strategy on a substrate where it
// has no behavior.
func (s Strategy) noBehavior(ratings bool) string {
	if ratings {
		return fmt.Sprintf("collabscore: strategy %v has no rating-scale behavior", s)
	}
	return fmt.Sprintf("collabscore: strategy %v has no binary behavior", s)
}

// ratingSimulation builds the scenario's RatingSimulation (ProtoRatings).
func (sc Scenario) ratingSimulation() *RatingSimulation {
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

// simulation builds the validated scenario's Simulation. The RNG splits
// are identical to the fluent construction: Split is a pure read of the
// root stream, so skipping the uniform instance that NewSimulation would
// generate before planting changes no coins.
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

// runBudgets is ProtoBudgets' runner: the scenario's two-tier capacity
// vector through RunWithCapacities.
func (sc Scenario) runBudgets(s *Simulation) *Report {
	small, big, frac := sc.capacities(s.cfg.Objects)
	return s.RunWithCapacities(s.TwoTierCapacities(small, big, frac))
}

// Run builds the scenario on fresh allocations, runs it, and returns its
// report. ProtoRatings points build a rating simulation, every other
// protocol the binary one. It panics with Validate's message on a scenario
// that cannot run.
func (sc Scenario) Run() *Report {
	sc.mustValidate()
	if sc.Protocol == ProtoRatings {
		rs := sc.ratingSimulation()
		r := rs.summary(rs.runByzantine(0))
		r.OptDiameter = sc.Diameter
		return r
	}
	return protocolTable[sc.Protocol].run(sc, sc.simulation())
}

// Build constructs the scenario's configured Simulation — planted and
// corrupted, protocol not yet run. Most callers want Run; the sweep engine
// uses Build/Execute to measure the planted instance before running the
// protocol. ProtoRatings scenarios have no binary Simulation; use Run for
// those (Build panics rather than constructing a wrong-substrate world).
// The pl argument is ignored (pass nil); it is removed together with Pool.
func (sc Scenario) Build(pl *Pool) *Simulation {
	sc.mustValidate()
	if sc.Protocol == ProtoRatings {
		panic(errNoBinary)
	}
	return sc.simulation()
}

// Execute runs the scenario's protocol variant on a Simulation built by
// Build.
func (sc Scenario) Execute(s *Simulation) *Report {
	sc.mustValidate()
	run := protocolTable[sc.Protocol].run
	if run == nil {
		panic(errNoBinary)
	}
	return run(sc, s)
}

// errNoBinary refuses a binary Simulation for a ProtoRatings scenario.
const errNoBinary = "collabscore: ProtoRatings has no binary Simulation; use Scenario.Run"

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
