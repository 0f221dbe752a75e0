package collabscore

import (
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// scenarioMatrix is a shape-diverse scenario list: different n, m, budgets,
// plantings, corruption levels, strategies and protocol variants.
func scenarioMatrix() []Scenario {
	return []Scenario{
		{Config: Config{Players: 128, Seed: 1, FixedDiameter: 8}, ClusterSize: 16, Diameter: 8, Protocol: ProtoRun},
		{Config: Config{Players: 128, Seed: 2, FixedDiameter: 8}, ClusterSize: 16, Diameter: 8, Dishonest: 5, Strategy: Colluders, Protocol: ProtoByzantine},
		{Config: Config{Players: 64, Objects: 128, Seed: 3}, Protocol: ProtoProbeAll},
		{Config: Config{Players: 96, Seed: 4, FixedDiameter: 4}, ZipfClusters: 4, ZipfAlpha: 1.2, Diameter: 4, Protocol: ProtoRun},
		{Config: Config{Players: 128, Seed: 5, FixedDiameter: 8}, ClusterSize: 16, Diameter: 8, Dishonest: 5, Strategy: ClusterHijackers, Protocol: ProtoByzantine},
		{Config: Config{Players: 128, Seed: 1, FixedDiameter: 8}, ClusterSize: 16, Diameter: 8, Protocol: ProtoBaseline},
		{Config: Config{Players: 64, Seed: 6}, Protocol: ProtoRandomGuess},
		// Same shape twice in a row.
		{Config: Config{Players: 128, Seed: 7, FixedDiameter: 8}, ClusterSize: 32, Diameter: 8, Dishonest: 4, Strategy: StrangeObjectAttackers, Protocol: ProtoByzantine},
		{Config: Config{Players: 128, Seed: 8, FixedDiameter: 8}, ClusterSize: 32, Diameter: 8, Dishonest: 4, Strategy: RandomLiar, Protocol: ProtoByzantine},
		// §8 extensions: rating-scale points (two scales, so the bit-plane
		// width changes shape), interleaved with a budgets point.
		{Config: Config{Players: 96, Seed: 9, FixedDiameter: 16}, ClusterSize: 12, Diameter: 16, Scale: 5, Dishonest: 4, Strategy: Exaggerators, Protocol: ProtoRatings},
		{Config: Config{Players: 96, Seed: 10, FixedDiameter: 8}, ClusterSize: 12, Diameter: 8, Protocol: ProtoBudgets, CapSmall: 8, CapBig: 48, CapBigFrac: 0.5},
		{Config: Config{Players: 96, Seed: 11, FixedDiameter: 16}, ClusterSize: 12, Diameter: 16, Scale: 9, Dishonest: 3, Strategy: HarshShifters, Protocol: ProtoRatings},
		{Config: Config{Players: 96, Seed: 12, FixedDiameter: 16}, ClusterSize: 12, Diameter: 16, Scale: 5, Protocol: ProtoRatings},
		// Neighbor-index knob: LSH points on the clustering protocols.
		{Config: Config{Players: 128, Seed: 13, FixedDiameter: 8, NeighborIndex: "lsh"}, ClusterSize: 16, Diameter: 8, Protocol: ProtoRun},
		{Config: Config{Players: 96, Seed: 14, FixedDiameter: 8, NeighborIndex: "lsh:8:6"}, ClusterSize: 12, Diameter: 8, Protocol: ProtoBudgets, CapSmall: 8, CapBig: 48, CapBigFrac: 0.5},
		// Truth-source knob: lazy worlds recompute truth cells from the seed
		// stream at probe time, across every planting family and substrate.
		// Reports must be byte-identical to the dense default.
		{Config: Config{Players: 128, Seed: 15, FixedDiameter: 8, TruthSource: "lazy"}, ClusterSize: 16, Diameter: 8, Protocol: ProtoRun},
		{Config: Config{Players: 96, Seed: 16, FixedDiameter: 4, TruthSource: "lazy"}, ZipfClusters: 4, ZipfAlpha: 1.2, Diameter: 4, Dishonest: 4, Strategy: RandomLiar, Protocol: ProtoByzantine},
		{Config: Config{Players: 64, Objects: 128, Seed: 17, TruthSource: "lazy"}, Protocol: ProtoProbeAll},
		{Config: Config{Players: 96, Seed: 18, FixedDiameter: 16, TruthSource: "lazy"}, ClusterSize: 12, Diameter: 16, Scale: 5, Dishonest: 3, Strategy: Exaggerators, Protocol: ProtoRatings},
		{Config: Config{Players: 96, Seed: 19, FixedDiameter: 8, TruthSource: "lazy"}, ClusterSize: 12, Diameter: 8, Protocol: ProtoBudgets, CapSmall: 8, CapBig: 48, CapBigFrac: 0.5},
	}
}

// TestScenarioMatchesFluent pins the declarative path to the fluent one:
// running a Scenario is byte-identical to building the same simulation by
// hand with NewSimulation / PlantClusters / Corrupt / Run*.
func TestScenarioMatchesFluent(t *testing.T) {
	sc := Scenario{
		Config:      Config{Players: 128, Seed: 42, FixedDiameter: 8},
		ClusterSize: 16, Diameter: 8,
		Dishonest: 5, Strategy: Colluders,
		Protocol: ProtoByzantine,
	}
	got := sc.Run()

	sim := NewSimulation(sc.Config)
	sim.PlantClusters(16, 8)
	sim.Corrupt(5, Colluders)
	want := sim.RunByzantine()

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario report differs from fluent construction:\n got %+v\nwant %+v", got, want)
	}

	// And the honest-randomness variant.
	sc.Dishonest, sc.Protocol = 0, ProtoRun
	got = sc.Run()
	sim = NewSimulation(sc.Config)
	sim.PlantClusters(16, 8)
	want = sim.Run()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("honest scenario report differs from fluent construction")
	}
}

// TestPoolMatchesFresh pins the deprecated Pool shim: Pool.Run is
// Scenario.Run, report for report, across a shape-diverse scenario
// sequence run on one Pool.
func TestPoolMatchesFresh(t *testing.T) {
	pool := NewPool()
	for i, sc := range scenarioMatrix() {
		want := sc.Run()
		got := pool.Run(sc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scenario %d (%v on n=%d): Pool.Run report differs from Scenario.Run\n got %+v\nwant %+v",
				i, sc.Protocol, sc.Players, got, want)
		}
	}
}

// TestParseRoundTrips pins the string forms grid specs and JSONL records
// use.
func TestParseRoundTrips(t *testing.T) {
	for _, p := range []Protocol{ProtoRun, ProtoByzantine, ProtoBaseline, ProtoProbeAll, ProtoRandomGuess, ProtoRatings, ProtoBudgets} {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseProtocol("nope"); err == nil {
		t.Fatal("ParseProtocol accepted an unknown name")
	}
	for _, s := range []Strategy{RandomLiar, FlipAll, Colluders, ClusterHijackers, StrangeObjectAttackers, ZeroSpammers, Exaggerators, HarshShifters} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Fatal("ParseStrategy accepted an unknown name")
	}
}

// TestStrategyCapabilities pins which strategies apply to which substrate:
// the sweep expander relies on these predicates to skip uninstantiable
// (strategy, protocol) combinations deterministically.
func TestStrategyCapabilities(t *testing.T) {
	wantRating := map[Strategy]bool{
		RandomLiar: true, FlipAll: true, ZeroSpammers: true,
		Exaggerators: true, HarshShifters: true,
		Colluders: false, ClusterHijackers: false, StrangeObjectAttackers: false,
	}
	for s, want := range wantRating {
		if s.RatingCapable() != want {
			t.Fatalf("%v.RatingCapable() = %v, want %v", s, s.RatingCapable(), want)
		}
	}
	for _, s := range []Strategy{Exaggerators, HarshShifters} {
		if s.BinaryCapable() {
			t.Fatalf("%v should not be binary-capable", s)
		}
	}
	if !Colluders.BinaryCapable() {
		t.Fatal("Colluders should be binary-capable")
	}
}

// TestRatingScenarioMatchesFluent pins the declarative rating path to the
// fluent one: a ProtoRatings scenario is byte-identical to building the
// same RatingSimulation by hand.
func TestRatingScenarioMatchesFluent(t *testing.T) {
	sc := Scenario{
		Config:      Config{Players: 96, Seed: 41, FixedDiameter: 16},
		ClusterSize: 12, Diameter: 16, Scale: 5,
		Dishonest: 4, Strategy: Exaggerators,
		Protocol: ProtoRatings,
	}
	got := sc.Run()

	rs := NewRatingSimulation(RatingConfig{
		Players: 96, Scale: 5, Seed: 41, FixedDiameter: 16,
	}, 12, 16)
	rs.Corrupt(4, Exaggerators)
	rrep := rs.RunByzantine(0)

	if got.MaxError != rrep.MaxL1Error || got.MeanError != rrep.MeanL1Error ||
		got.MaxProbes != int64(rrep.MaxProbes) || got.MeanProbes != rrep.MeanProbes ||
		got.TotalProbes != rrep.TotalProbes ||
		got.HonestLeaders != rrep.HonestLeaders || got.Repetitions != rrep.Repetitions ||
		got.CommWrites != rrep.CommWrites || got.CommReads != rrep.CommReads ||
		got.OptDiameter != sc.Diameter || got.Outputs != nil {
		t.Fatalf("rating scenario report differs from fluent construction:\n got %+v\nwant %+v", got, rrep)
	}
}

// TestRatingScenarioSkipsOutputDecode pins that a ProtoRatings scenario
// builds its Report straight from the run's result: it must not decode
// the n·m output ratings that only RatingReport.Outputs carries, which
// take n·m·8 bytes. The rest of a run's allocation varies by tens of
// kilobytes with the parallel schedule, so the scenario path must come in
// at least half of that below the fluent RunByzantine on the same world.
func TestRatingScenarioSkipsOutputDecode(t *testing.T) {
	const n = 256
	sc := Scenario{
		Config:      Config{Players: n, Seed: 43, FixedDiameter: 16},
		ClusterSize: 32, Diameter: 16, Scale: 5,
		Protocol: ProtoRatings,
	}
	alloc := func(run func()) uint64 {
		runtime.GC() // the board's slab reuse must not favor either run
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var m int
	fluent := alloc(func() {
		rs := NewRatingSimulation(RatingConfig{Players: n, Scale: 5, Seed: 43, FixedDiameter: 16}, 32, 16)
		m = len(rs.RunByzantine(0).Outputs[0])
	})
	scenario := alloc(func() { sc.Run() })
	if scenario+uint64(n*m*8/2) > fluent {
		t.Fatalf("the scenario path allocated %d bytes against the fluent run's %d, want at least %d less", scenario, fluent, n*m*8/2)
	}
}

// TestNeighborIndexMatchesExact pins the public knob end-to-end: on a
// planted scenario at the paper-regime threshold, selecting the LSH
// banding index produces a report byte-identical to the exact default,
// for both the honest protocol and the capacity extension.
func TestNeighborIndexMatchesExact(t *testing.T) {
	base := Scenario{
		Config:      Config{Players: 256, Seed: 2010, FixedDiameter: 8},
		ClusterSize: 32, Diameter: 8,
		Protocol: ProtoRun,
	}
	want := base.Run()
	lsh := base
	lsh.Config.NeighborIndex = "lsh"
	if got := lsh.Run(); !reflect.DeepEqual(got, want) {
		t.Fatalf("NeighborIndex=lsh report differs from exact default:\n got %+v\nwant %+v", got, want)
	}

	// RunWithCapacities inherits the knob from the simulation's config.
	caps := func(nidx string) *Report {
		sim := NewSimulation(Config{Players: 192, Seed: 7, FixedDiameter: 8, NeighborIndex: nidx})
		sim.PlantClusters(24, 8)
		return sim.RunWithCapacities(sim.TwoTierCapacities(16, 96, 0.5))
	}
	if got, want := caps("lsh:16:12"), caps(""); !reflect.DeepEqual(got, want) {
		t.Fatalf("capacity run with LSH index differs from exact:\n got %+v\nwant %+v", got, want)
	}
}

// TestNeighborIndexInvalidPanics: a malformed index spec must fail fast at
// construction with an actionable message, not deep inside a run.
func TestNeighborIndexInvalidPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewSimulation accepted an invalid NeighborIndex")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "neighbor index") {
			t.Fatalf("unhelpful panic: %v", r)
		}
	}()
	NewSimulation(Config{Players: 16, Seed: 1, NeighborIndex: "lsh:0:4"})
}

// TestRatingScenarioBuildPanics: Build/Execute are the binary-substrate
// path; a ProtoRatings scenario must fail fast with an actionable message
// instead of constructing a wrong-substrate Simulation.
func TestRatingScenarioBuildPanics(t *testing.T) {
	sc := Scenario{
		Config:      Config{Players: 32, Seed: 1},
		ClusterSize: 8, Diameter: 4, Protocol: ProtoRatings,
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Build accepted a ProtoRatings scenario")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "ProtoRatings") {
			t.Fatalf("unhelpful panic: %v", r)
		}
	}()
	sc.Build(nil)
}

// TestScenarioCapacityDefaults pins ProtoBudgets' two-tier defaults: m/32
// and m/2 probes for a quarter of the players, with the small tier at
// least 1 and the big tier never below the small one; explicit values pass
// through.
func TestScenarioCapacityDefaults(t *testing.T) {
	cases := []struct {
		sc          Scenario
		m           int
		small, big  int
		bigFraction float64
	}{
		{Scenario{}, 256, 8, 128, 0.25},
		{Scenario{}, 16, 1, 8, 0.25},
		{Scenario{}, 1, 1, 1, 0.25},
		{Scenario{CapSmall: 3, CapBig: 9, CapBigFrac: 0.5}, 256, 3, 9, 0.5},
	}
	for _, tc := range cases {
		small, big, frac := tc.sc.capacities(tc.m)
		if small != tc.small || big != tc.big || frac != tc.bigFraction {
			t.Fatalf("%+v at m=%d: capacities (%d, %d, %v), want (%d, %d, %v)",
				tc.sc, tc.m, small, big, frac, tc.small, tc.big, tc.bigFraction)
		}
	}
}

// recovered runs f and returns what it panicked with (nil if it returned).
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestValidateMatchesPanics: Validate refuses one scenario per rule, and
// every public constructor that meets the scenario panics with exactly its
// message — Run, Build and Execute always, NewSimulation when the rule is
// about the Config alone, NewRatingSimulation when the rule is about what
// a RatingConfig and a cluster planting carry. Every golden case
// validates.
func TestValidateMatchesPanics(t *testing.T) {
	base := Config{Players: 16, Seed: 1}
	with := func(f func(*Config)) Config { c := base; f(&c); return c }
	cases := []struct {
		name           string
		sc             Scenario
		binary, rating bool
	}{
		{"players", Scenario{Config: with(func(c *Config) { c.Players = 0 }), ClusterSize: 4}, true, true},
		{"objects", Scenario{Config: with(func(c *Config) { c.Objects = -3 }), ClusterSize: 4}, true, true},
		{"budget", Scenario{Config: with(func(c *Config) { c.Budget = -1 }), ClusterSize: 4}, true, true},
		{"truth", Scenario{Config: with(func(c *Config) { c.TruthSource = "garbage" }), ClusterSize: 4}, true, true},
		{"index", Scenario{Config: with(func(c *Config) { c.NeighborIndex = "garbage" }), ClusterSize: 4}, true, false},
		{"protocol", Scenario{Config: base, Protocol: Protocol(len(protocolTable))}, false, false},
		{"ratings-planting", Scenario{Config: base, Protocol: ProtoRatings}, false, true},
		{"ratings-scale", Scenario{Config: base, ClusterSize: 4, Scale: -1, Protocol: ProtoRatings}, false, true},
		{"binary-strategy", Scenario{Config: base, ClusterSize: 4, Dishonest: 2, Strategy: Exaggerators}, false, false},
		{"rating-strategy", Scenario{Config: base, ClusterSize: 4, Dishonest: 2, Strategy: Colluders, Protocol: ProtoRatings}, false, false},
		{"unknown-strategy", Scenario{Config: base, ClusterSize: 4, Dishonest: 2, Strategy: Strategy(-1)}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if err == nil {
				t.Fatal("Validate accepted the scenario")
			}
			sc := tc.sc
			ctors := map[string]func(){
				"Run":     func() { sc.Run() },
				"Build":   func() { sc.Build(nil) },
				"Execute": func() { sc.Execute(nil) },
			}
			if tc.binary {
				ctors["NewSimulation"] = func() { NewSimulation(sc.Config) }
			}
			if tc.rating {
				ctors["NewRatingSimulation"] = func() {
					NewRatingSimulation(RatingConfig{Players: sc.Players, Objects: sc.Objects, Budget: sc.Budget,
						Scale: sc.Scale, TruthSource: sc.TruthSource}, sc.ClusterSize, 2)
				}
			}
			for name, f := range ctors {
				if r := recovered(f); r != err.Error() {
					t.Errorf("%s panicked with %v, want %q", name, r, err)
				}
			}
		})
	}
	for _, c := range goldenCases() {
		if err := c.sc.Validate(); err != nil {
			t.Errorf("golden case %s: %v", c.name, err)
		}
	}
}

// TestValidateScaleBound: a ratings scenario's Scale is refused above
// MaxScale, with an error naming the bound, and accepted at it. Only
// Validate runs: a scenario at such a scale is never built.
func TestValidateScaleBound(t *testing.T) {
	sc := Scenario{Config: Config{Players: 16, Seed: 1}, ClusterSize: 4, Diameter: 2, Protocol: ProtoRatings}
	for _, scale := range []int{MaxScale + 1, 1<<32 - 1, math.MaxInt} {
		sc.Scale = scale
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxScale)) {
			t.Errorf("Scale %d: Validate = %v, want an error naming %d", scale, err, MaxScale)
		}
	}
	if sc.Scale = MaxScale; sc.Validate() != nil {
		t.Errorf("Scale %d refused: %v", MaxScale, sc.Validate())
	}
}

// TestStrategyTable: each strategy's capabilities are what Corrupt does.
// On each substrate a capable strategy installs a dishonest behavior on
// exactly k players and an incapable one panics; an out-of-range strategy
// is capable of nothing.
func TestStrategyTable(t *testing.T) {
	const k = 5
	for s := Strategy(-1); int(s) <= len(strategyTable); s++ {
		sim := NewSimulation(Config{Players: 32, Seed: 1})
		if r := recovered(func() { sim.Corrupt(k, s) }); (r == nil) != s.BinaryCapable() {
			t.Errorf("%v: BinaryCapable %v, Corrupt panic %v", s, s.BinaryCapable(), r)
		} else if r == nil && len(sim.World().DishonestPlayers()) != k {
			t.Errorf("%v: binary Corrupt made %d players dishonest, want %d", s, len(sim.World().DishonestPlayers()), k)
		}
		rs := NewRatingSimulation(RatingConfig{Players: 32, Seed: 1}, 8, 2)
		if r := recovered(func() { rs.Corrupt(k, s) }); (r == nil) != s.RatingCapable() {
			t.Errorf("%v: RatingCapable %v, Corrupt panic %v", s, s.RatingCapable(), r)
		} else if r == nil && len(rs.World().DishonestPlayers()) != k {
			t.Errorf("%v: rating Corrupt made %d players dishonest, want %d", s, len(rs.World().DishonestPlayers()), k)
		}
		if inRange := s >= 0 && int(s) < len(strategyTable); !inRange && (s.BinaryCapable() || s.RatingCapable()) {
			t.Errorf("out-of-range %v is capable", s)
		}
	}
}
