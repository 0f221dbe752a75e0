package collabscore

import (
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	sim := NewSimulation(Config{Players: 512, Objects: 512, Budget: 8, Seed: 42, FixedDiameter: 32})
	sim.PlantClusters(64, 32)
	rep := sim.Run()
	if rep.MaxError > 64 {
		t.Fatalf("max error %d for planted diameter 32", rep.MaxError)
	}
	if rep.MaxProbes <= 0 || rep.MaxProbes > 512 {
		t.Fatalf("max probes %d out of range", rep.MaxProbes)
	}
	if rep.OptDiameter != 32 {
		t.Fatalf("OptDiameter = %d", rep.OptDiameter)
	}
	if len(rep.Outputs) != 512 {
		t.Fatalf("outputs = %d", len(rep.Outputs))
	}
}

func TestByzantineFlow(t *testing.T) {
	sim := NewSimulation(Config{Players: 512, Budget: 8, Seed: 7, FixedDiameter: 32})
	sim.PlantClusters(64, 32)
	sim.Corrupt(sim.Tolerance(), RandomLiar)
	rep := sim.RunByzantine()
	if rep.MaxError > 64 {
		t.Fatalf("Byzantine max error %d", rep.MaxError)
	}
	if rep.Repetitions == 0 || rep.HonestLeaders == 0 {
		t.Fatalf("election stats missing: %+v", rep)
	}
	if !strings.Contains(rep.String(), "honest leaders") {
		t.Fatalf("String() = %q", rep.String())
	}
}

func TestDefaults(t *testing.T) {
	sim := NewSimulation(Config{Players: 64, Seed: 1})
	if sim.cfg.Objects != 64 {
		t.Fatalf("Objects default = %d", sim.cfg.Objects)
	}
	if sim.cfg.Budget != 8 {
		t.Fatalf("Budget default = %d", sim.cfg.Budget)
	}
	if sim.Tolerance() != 64/24 {
		t.Fatalf("Tolerance = %d", sim.Tolerance())
	}
}

func TestBaselines(t *testing.T) {
	sim := NewSimulation(Config{Players: 256, Budget: 8, Seed: 3, FixedDiameter: 16})
	sim.PlantClusters(32, 16)
	pa := sim.RunProbeAll()
	if pa.MaxError != 0 || pa.MaxProbes != 256 {
		t.Fatalf("probe-all report %+v", pa)
	}
	rg := sim.RunRandomGuess()
	if rg.MaxProbes != 0 || rg.MeanError < 64 {
		t.Fatalf("random-guess report %+v", rg)
	}
	bl := sim.RunBaseline()
	if bl.MaxError > 5*16 {
		t.Fatalf("baseline max error %d", bl.MaxError)
	}
}

func TestAllStrategiesRun(t *testing.T) {
	for _, strat := range []Strategy{RandomLiar, FlipAll, Colluders, ClusterHijackers, StrangeObjectAttackers, ZeroSpammers} {
		sim := NewSimulation(Config{Players: 256, Budget: 8, Seed: 5, FixedDiameter: 16})
		sim.PlantClusters(32, 16)
		sim.Corrupt(sim.Tolerance(), strat)
		rep := sim.Run()
		if rep.MaxError > 2*16 {
			t.Fatalf("%v: max error %d", strat, rep.MaxError)
		}
		if strat.String() == "" {
			t.Fatal("empty strategy name")
		}
	}
}

func TestPlantZipf(t *testing.T) {
	sim := NewSimulation(Config{Players: 256, Budget: 8, Seed: 9})
	sim.PlantZipf(5, 1.2, 8)
	if len(sim.Instance().Centers) != 5 {
		t.Fatalf("Zipf centers = %d", len(sim.Instance().Centers))
	}
}

func TestDeterministicReports(t *testing.T) {
	mk := func() *Report {
		sim := NewSimulation(Config{Players: 256, Budget: 8, Seed: 11, FixedDiameter: 16})
		sim.PlantClusters(32, 16)
		return sim.Run()
	}
	a, b := mk(), mk()
	if a.MaxError != b.MaxError || a.MaxProbes != b.MaxProbes {
		t.Fatal("same seed produced different reports")
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSimulation(Config{Players: 0})
}

// TestBadShapePanicsNameField: every constructor rejects a nonsensical
// player, object or budget count at construction, with a message naming the
// field, instead of failing later inside the protocol.
func TestBadShapePanicsNameField(t *testing.T) {
	rating := func(cfg RatingConfig) func() {
		return func() { NewRatingSimulation(cfg, 4, 2) }
	}
	scenario := func(sc Scenario) func() { return func() { sc.Run() } }
	cases := []struct {
		name, want string
		run        func()
	}{
		{"binary-players", "Players must be ≥ 1", func() { NewSimulation(Config{Players: 0}) }},
		{"binary-objects", "Objects must be ≥ 0", func() { NewSimulation(Config{Players: 16, Objects: -3}) }},
		{"binary-budget", "Budget must be ≥ 0", func() { NewSimulation(Config{Players: 16, Budget: -1}) }},
		{"rating-players", "Players must be ≥ 1", rating(RatingConfig{Players: -1})},
		{"rating-objects", "Objects must be ≥ 0", rating(RatingConfig{Players: 16, Objects: -3})},
		{"rating-budget", "Budget must be ≥ 0", rating(RatingConfig{Players: 16, Budget: -1})},
		{"scenario-objects", "Objects must be ≥ 0", scenario(Scenario{Config: Config{Players: 16, Objects: -3}, ClusterSize: 4})},
		{"scenario-budget", "Budget must be ≥ 0", scenario(Scenario{Config: Config{Players: 16, Budget: -1}, ClusterSize: 4})},
		{"scenario-ratings-objects", "Objects must be ≥ 0", scenario(Scenario{Config: Config{Players: 16, Objects: -3}, ClusterSize: 4, Protocol: ProtoRatings})},
		{"scenario-ratings-budget", "Budget must be ≥ 0", scenario(Scenario{Config: Config{Players: 16, Budget: -1}, ClusterSize: 4, Protocol: ProtoRatings})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("constructor accepted the config")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %v, want a message containing %q", r, tc.want)
				}
			}()
			tc.run()
		})
	}
}
