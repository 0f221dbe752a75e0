package collabscore

import (
	"reflect"
	"strings"
	"testing"
)

// TestTruthSourceMatchesDense is the public-API oracle for the truth-source
// seam (DESIGN.md §14): for the same scenario, both representations —
// materialized and lazy — must produce a byte-identical report, across plantings, corruption, and protocol variants. The knob
// changes how truth is stored, never what any probe returns.
func TestTruthSourceMatchesDense(t *testing.T) {
	scenarios := []Scenario{
		{Config: Config{Players: 128, Seed: 31, FixedDiameter: 8}, ClusterSize: 16, Diameter: 8, Protocol: ProtoRun},
		{Config: Config{Players: 128, Seed: 32, FixedDiameter: 8}, ClusterSize: 16, Diameter: 8, Dishonest: 5, Strategy: Colluders, Protocol: ProtoByzantine},
		{Config: Config{Players: 96, Seed: 33, FixedDiameter: 4}, ZipfClusters: 4, ZipfAlpha: 1.2, Diameter: 4, Protocol: ProtoRun},
		{Config: Config{Players: 64, Objects: 100, Seed: 34}, Protocol: ProtoRandomGuess},
		{Config: Config{Players: 128, Seed: 35, FixedDiameter: 8}, ClusterSize: 16, Diameter: 8, Protocol: ProtoBaseline},
		{Config: Config{Players: 96, Seed: 36, FixedDiameter: 8}, ClusterSize: 12, Diameter: 8, Protocol: ProtoBudgets, CapSmall: 8, CapBig: 48, CapBigFrac: 0.5},
		{Config: Config{Players: 96, Seed: 37, FixedDiameter: 16}, ClusterSize: 12, Diameter: 16, Scale: 5, Dishonest: 4, Strategy: HarshShifters, Protocol: ProtoRatings},
		{Config: Config{Players: 128, Seed: 38, FixedDiameter: 8, NeighborIndex: "lsh"}, ClusterSize: 16, Diameter: 8, Protocol: ProtoRun},
		// 128 words: the lazy flip filter's buckets are two words wide, and
		// up to 256 flips per player make them collide.
		{Config: Config{Players: 64, Objects: 8192, Seed: 39, FixedDiameter: 512}, ClusterSize: 16, Diameter: 512, Protocol: ProtoRun},
	}
	for i, sc := range scenarios {
		dense := sc
		dense.Config.TruthSource = "dense"
		want := dense.Run()
		lazy := sc
		lazy.Config.TruthSource = "lazy"
		if got := lazy.Run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("scenario %d (%v): lazy report differs from dense\n got %+v\nwant %+v",
				i, sc.Protocol, got, want)
		}
	}
}

// TestTruthSourceFluentMatchesDense pins the fluent construction path: a
// lazy simulation planted and corrupted by hand must match its dense twin,
// including after re-planting (which rebuilds the world on a new source).
func TestTruthSourceFluentMatchesDense(t *testing.T) {
	build := func(src string) *Report {
		sim := NewSimulation(Config{Players: 128, Seed: 51, FixedDiameter: 8, TruthSource: src})
		sim.PlantClusters(32, 4) // replaced below: re-planting must stay sound
		sim.PlantClusters(16, 8)
		sim.Corrupt(4, FlipAll)
		return sim.RunByzantine()
	}
	if got, want := build("lazy"), build(""); !reflect.DeepEqual(got, want) {
		t.Fatal("fluent lazy report differs from dense")
	}

	// PlantZipf re-planting on the lazy family.
	zipf := func(src string) *Report {
		sim := NewSimulation(Config{Players: 96, Seed: 52, FixedDiameter: 4, TruthSource: src})
		sim.PlantZipf(4, 1.2, 4)
		return sim.Run()
	}
	if got, want := zipf("lazy"), zipf(""); !reflect.DeepEqual(got, want) {
		t.Fatal("fluent PlantZipf lazy report differs from dense")
	}
}

// TestTruthSourceInvalidPanics: malformed truth-source specs must fail fast
// at construction with an actionable message — on the binary constructor,
// the rating constructor, and the scenario path alike. Tile-count specs
// ("lazy:N") are malformed: lazy sources have no tile cache.
func TestTruthSourceInvalidPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func()
	}{
		{"binary", func() { NewSimulation(Config{Players: 16, Seed: 1, TruthSource: "lazy:0"}) }},
		{"rating", func() {
			NewRatingSimulation(RatingConfig{Players: 16, Seed: 1, TruthSource: "sparse"}, 4, 2)
		}},
		{"scenario", func() {
			Scenario{Config: Config{Players: 16, Seed: 1, TruthSource: "lazy:x"}}.Run()
		}},
		{"binary-tiles", func() { NewSimulation(Config{Players: 16, Seed: 1, TruthSource: "lazy:16"}) }},
		{"rating-tiles", func() {
			NewRatingSimulation(RatingConfig{Players: 16, Seed: 1, TruthSource: "lazy:16"}, 4, 2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("constructor accepted an invalid TruthSource")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "truth source") {
					t.Fatalf("unhelpful panic: %v", r)
				}
			}()
			tc.run()
		})
	}
}

// TestTruthSourceScheduleMatrix is the full oracle matrix of the seam: for
// every truth representation × phase schedule (serial, fixed-width,
// parallel), the core protocol and the §8 budgets extension must produce
// reports byte-identical to the dense/serial reference — outputs, probe
// counts, and iteration stats. Probing order varies wildly across
// schedules, so this pins that lazy recomputation is genuinely
// order-invariant, not just right for one interleaving.
func TestTruthSourceScheduleMatrix(t *testing.T) {
	type sched struct {
		name  string
		apply func(*Simulation)
	}
	schedules := []sched{
		{"serial", func(s *Simulation) { s.Params().PhaseSerial = true }},
		{"fixed2", func(s *Simulation) { s.Params().PhaseWorkers = 2 }},
		{"parallel", func(s *Simulation) {}},
	}
	build := func(src string) *Simulation {
		sim := NewSimulation(Config{Players: 128, Seed: 61, FixedDiameter: 8, TruthSource: src})
		sim.PlantClusters(16, 8)
		sim.Corrupt(4, RandomLiar)
		return sim
	}
	layers := []struct {
		name string
		run  func(*Simulation) *Report
	}{
		{"core", func(s *Simulation) *Report { return s.Run() }},
		{"budgets", func(s *Simulation) *Report {
			return s.RunWithCapacities(s.TwoTierCapacities(16, 96, 0.5))
		}},
	}
	for _, layer := range layers {
		var ref *Report
		for _, src := range []string{"", "lazy"} {
			for _, sch := range schedules {
				sim := build(src)
				sch.apply(sim)
				got := layer.run(sim)
				if ref == nil {
					ref = got
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s layer, TruthSource=%q, %s schedule: report diverges from dense/serial reference",
						layer.name, src, sch.name)
				}
			}
		}
	}
}
