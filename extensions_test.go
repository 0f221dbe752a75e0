package collabscore

import (
	"slices"
	"testing"
)

func TestRunWithCapacities(t *testing.T) {
	sim := NewSimulation(Config{Players: 512, Budget: 8, Seed: 31, FixedDiameter: 32})
	sim.PlantClusters(64, 32)
	caps := sim.TwoTierCapacities(16, 256, 0.5)
	if len(caps) != 512 {
		t.Fatalf("capacities length %d", len(caps))
	}
	rep := sim.RunWithCapacities(caps)
	if rep.MaxError > 64 {
		t.Fatalf("heterogeneous-budget max error %d", rep.MaxError)
	}
	if rep.MaxProbes == 0 {
		t.Fatal("no probes recorded")
	}
	// The report carries one iteration per guess of the ladder.
	sim.Params().MinD, sim.Params().MaxD = 8, 64
	rep = sim.RunWithCapacities(caps)
	var ds []int
	for _, it := range rep.Iterations {
		ds = append(ds, it.D)
	}
	if want := []int{8, 16, 32, 64}; !slices.Equal(ds, want) {
		t.Fatalf("report iterations ran guesses %v, want %v", ds, want)
	}
}

func TestRunWithCapacitiesPanicsOnMismatch(t *testing.T) {
	sim := NewSimulation(Config{Players: 64, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sim.RunWithCapacities([]int{1, 2, 3})
}

func TestRatingSimulationFlow(t *testing.T) {
	rs := NewRatingSimulation(RatingConfig{
		Players: 256, Scale: 5, Budget: 8, Seed: 33, FixedDiameter: 32,
	}, 32, 32)
	rep := rs.Run()
	if rep.MaxL1Error > 96 {
		t.Fatalf("rating max L1 error %d", rep.MaxL1Error)
	}
	if len(rep.Outputs) != 256 || len(rep.Outputs[0]) != 256 {
		t.Fatal("rating outputs shape wrong")
	}
	for _, r := range rep.Outputs[0] {
		if r < 0 || r > 5 {
			t.Fatalf("rating %d out of scale", r)
		}
	}
}

func TestRatingSimulationByzantine(t *testing.T) {
	for _, strat := range []Strategy{RandomLiar, FlipAll, ZeroSpammers, Exaggerators, HarshShifters} {
		rs := NewRatingSimulation(RatingConfig{
			Players: 256, Scale: 5, Budget: 8, Seed: 35, FixedDiameter: 32,
		}, 32, 32)
		rs.Corrupt(rs.Tolerance(), strat)
		rep := rs.RunByzantine(5)
		if rep.MaxL1Error > 96 {
			t.Fatalf("strategy %d: max L1 error %d", strat, rep.MaxL1Error)
		}
		if rep.HonestLeaders == 0 {
			t.Fatalf("strategy %d: no honest leaders", strat)
		}
	}
}

func TestRatingConfigDefaults(t *testing.T) {
	rs := NewRatingSimulation(RatingConfig{Players: 64, Seed: 1}, 8, 4)
	if rs.cfg.Objects != 64 || rs.cfg.Budget != 8 || rs.cfg.Scale != 5 {
		t.Fatalf("defaults wrong: %+v", rs.cfg)
	}
	if rs.Tolerance() != 64/24 {
		t.Fatalf("tolerance %d", rs.Tolerance())
	}
}

func TestReportPrefers(t *testing.T) {
	sim := NewSimulation(Config{Players: 256, Budget: 8, Seed: 37, FixedDiameter: 16})
	sim.PlantClusters(32, 0) // identical clusters: predictions ≈ truth
	rep := sim.Run()
	match := 0
	for o := 0; o < 256; o++ {
		if rep.Prefers(0, o) == sim.World().PeekTruth(0, o) {
			match++
		}
	}
	if match < 250 {
		t.Fatalf("Prefers matched truth on only %d/256 objects", match)
	}
}

// TestOffLadderDiameterRunsOneGuess: a fixed diameter that is not a power
// of two runs exactly that one guess in the budget and rating variants, as
// in core: the run probes and its error stays within D. With m = 384
// objects, D = 24 is well inside the separable range
// (core.Params.SeparableDiameter(384) = 38).
func TestOffLadderDiameterRunsOneGuess(t *testing.T) {
	const n, m, d = 256, 384, 24
	for _, planted := range []int{16, 24} {
		sim := NewSimulation(Config{Players: n, Objects: m, Budget: 8, Seed: 1, FixedDiameter: d})
		sim.PlantClusters(32, planted)
		rep := sim.RunWithCapacities(sim.TwoTierCapacities(32, 256, 0.5))
		if rep.TotalProbes == 0 || rep.MaxError > d {
			t.Errorf("planted %d: budgets probes %d, max error %d (want > 0 probes, error ≤ %d)",
				planted, rep.TotalProbes, rep.MaxError, d)
		}
		for _, byz := range []bool{false, true} {
			rs := NewRatingSimulation(RatingConfig{Players: n, Objects: m, Scale: 5, Budget: 8, Seed: 1, FixedDiameter: d}, 32, planted)
			var rr *RatingReport
			if byz {
				rr = rs.RunByzantine(3)
			} else {
				rr = rs.Run()
			}
			if len(rr.NumClusters) != 1 || rr.TotalProbes == 0 || rr.MaxL1Error > d {
				t.Errorf("planted %d, byzantine %v: ratings ran %d guesses, probes %d, max L1 error %d (want 1, > 0, ≤ %d)",
					planted, byz, len(rr.NumClusters), rr.TotalProbes, rr.MaxL1Error, d)
			}
		}
	}
}

// TestBudgetsReportBoardTraffic: the capacity variant shares its probing
// through the bulletin board, so its report counts board writes and reads.
func TestBudgetsReportBoardTraffic(t *testing.T) {
	rep := Scenario{Config: Config{Players: 256, Seed: 104, FixedDiameter: 16}, ClusterSize: 32, Diameter: 16,
		Protocol: ProtoBudgets, CapSmall: 32, CapBig: 256, CapBigFrac: 0.5}.Run()
	if rep.CommWrites == 0 || rep.CommReads == 0 {
		t.Fatalf("budgets board traffic %d writes, %d reads; want both > 0", rep.CommWrites, rep.CommReads)
	}
}

// TestRatingsReportBoardTraffic: the rating protocol shares its probing
// through the bulletin board, so both its report shapes count board writes
// and reads, and the Report a sweep records carries the RatingReport's.
func TestRatingsReportBoardTraffic(t *testing.T) {
	sc := Scenario{Config: Config{Players: 256, Seed: 105, FixedDiameter: 16}, ClusterSize: 32, Diameter: 16,
		Scale: 5, Dishonest: 256 / 24, Strategy: Exaggerators, Protocol: ProtoRatings}
	rr := sc.ratingSimulation().RunByzantine(0)
	if rr.CommWrites == 0 || rr.CommReads == 0 {
		t.Fatalf("RatingReport board traffic %d writes, %d reads; want both > 0", rr.CommWrites, rr.CommReads)
	}
	rep := sc.Run()
	if rep.CommWrites != rr.CommWrites || rep.CommReads != rr.CommReads {
		t.Fatalf("Report board traffic (%d,%d), RatingReport (%d,%d)", rep.CommWrites, rep.CommReads, rr.CommWrites, rr.CommReads)
	}
}

// TestBaselineOffLadderDiameter: the AASP baseline runs core's ladder, so a
// fixed diameter that is not a power of two runs exactly that guess — the
// run probes, its error stays within SmallRadius's 5·D, and its report
// lists that one guess.
func TestBaselineOffLadderDiameter(t *testing.T) {
	const d = 24
	rep := Scenario{Config: Config{Players: 256, FixedDiameter: d}, ClusterSize: 32, Diameter: d,
		Protocol: ProtoBaseline}.Run()
	if rep.TotalProbes == 0 || rep.MaxError > 5*d {
		t.Fatalf("baseline probes %d, max error %d; want > 0 probes, error ≤ %d", rep.TotalProbes, rep.MaxError, 5*d)
	}
	// The report carries core's per-guess view: one guess, at d, on the
	// full-SmallRadius path.
	if len(rep.Iterations) != 1 || rep.Iterations[0].D != d || !rep.Iterations[0].FullSmallRadius {
		t.Fatalf("baseline iterations %+v; want one full-SmallRadius guess at D = %d", rep.Iterations, d)
	}
}
