package multival

import (
	"testing"
	"testing/quick"

	"collabscore/internal/xrand"
)

// schedule matrix shared by the determinism and conservation properties.
var ratingSchedules = []struct {
	name         string
	phaseSerial  bool
	phaseWorkers int
	byzSerial    bool
}{
	{"serial", true, 0, true},
	{"fixed3", false, 3, true},
	{"parallel", false, 0, false},
}

// TestRatingScheduleMatrixMatches: the vectorized rating protocol's
// fixed-seed output is byte-identical under the serial reference, a
// fixed-width, and the fully parallel schedule — for both the
// honest-randomness run and the Byzantine wrapper, under corruption.
func TestRatingScheduleMatrixMatches(t *testing.T) {
	const n, m, b, d, scale = 128, 128, 8, 16, 5
	for _, byz := range []bool{false, true} {
		var refOut []Ratings
		var refProbes []int64
		for _, sched := range ratingSchedules {
			truth, _ := Generate(xrand.New(51), n, m, n/b, d, scale)
			w := NewWorld(truth, scale)
			corrupt(w, n/(3*b), xrand.New(52), func(p int) Behavior { return Exaggerator{} })
			pr := Scaled(n, b)
			pr.MinD, pr.MaxD = d, d
			pr.PhaseSerial = sched.phaseSerial
			pr.PhaseWorkers = sched.phaseWorkers
			pr.ByzSerial = sched.byzSerial
			var out []Ratings
			if byz {
				res := RunByzantine(w, xrand.New(53), nil, 3, pr)
				for _, row := range res.Output {
					out = append(out, Ratings(row.Ints()))
				}
			} else {
				res := Run(w, xrand.New(53), pr)
				for _, row := range res.Output {
					out = append(out, Ratings(row.Ints()))
				}
			}
			probes := make([]int64, n)
			for p := 0; p < n; p++ {
				probes[p] = w.Probes(p)
			}
			if refOut == nil {
				refOut, refProbes = out, probes
				continue
			}
			for p := 0; p < n; p++ {
				if out[p].L1(refOut[p]) != 0 {
					t.Fatalf("byz=%v: output for player %d differs under %s", byz, p, sched.name)
				}
				if probes[p] != refProbes[p] {
					t.Fatalf("byz=%v: probes for player %d differ under %s: %d vs %d",
						byz, p, sched.name, probes[p], refProbes[p])
				}
			}
		}
	}
}

// TestPropertyRatingProbeConservation mirrors core's probe-conservation
// property for the bit-plane path: across random small instances and every
// schedule, bulk word-level probing charges each (player, object) pair
// exactly once — per-player counters are schedule-independent, capped at
// m, and the aggregate views equal the counters they summarize.
func TestPropertyRatingProbeConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(seed uint64, byzantine bool) bool {
		rng := xrand.New(seed)
		n := 64 + int(seed%3)*32
		const b, scale = 8, 5
		d := 8 << (seed % 2)
		truth, _ := Generate(rng.Split(1), n, n, n/b, d, scale)
		fcnt := int(seed % uint64(n/(3*b)+1))

		var refProbes []int64
		for _, sched := range ratingSchedules {
			w := NewWorld(truth, scale)
			corrupt(w, fcnt, rng.Split(3), func(p int) Behavior { return RandomRater{Seed: seed} })
			pr := Scaled(n, b)
			pr.MinD, pr.MaxD = d, d
			pr.PhaseSerial = sched.phaseSerial
			pr.PhaseWorkers = sched.phaseWorkers
			pr.ByzSerial = sched.byzSerial
			if byzantine {
				RunByzantine(w, rng.Split(2), nil, 3, pr)
			} else {
				Run(w, rng.Split(2), pr)
			}

			var total, honestMax int64
			probes := make([]int64, n)
			for p := 0; p < n; p++ {
				probes[p] = w.Probes(p)
				if probes[p] < 0 || probes[p] > int64(n) {
					return false // memo cap: at most m distinct objects
				}
				total += probes[p]
				if w.IsHonest(p) && probes[p] > honestMax {
					honestMax = probes[p]
				}
			}
			if w.TotalProbes() != total || w.MaxHonestProbes() != honestMax {
				return false
			}
			if refProbes == nil {
				refProbes = probes
				continue
			}
			for p := 0; p < n; p++ {
				if probes[p] != refProbes[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestByzantineClusterReporting pins the PR 5 bugfix: the wrapper's
// NumClusters follows the documented convention (per-guess counts of the
// last honest-leader repetition, merged in repetition order) and is empty
// — not a silent stale zero — when every elected leader was dishonest,
// while Reps always carries the full per-repetition picture.
func TestByzantineClusterReporting(t *testing.T) {
	const n, m, b, d, scale = 128, 128, 8, 16, 5

	// All players dishonest ⇒ every leader dishonest ⇒ no protocol runs.
	truth, _ := Generate(xrand.New(61), n, m, n/b, d, scale)
	w := NewWorld(truth, scale)
	corrupt(w, n, xrand.New(62), func(p int) Behavior { return Exaggerator{} })
	pr := Scaled(n, b)
	pr.MinD, pr.MaxD = d, d
	res := RunByzantine(w, xrand.New(63), nil, 3, pr)
	if res.HonestLeaders != 0 {
		t.Fatalf("all-dishonest world elected %d honest leaders", res.HonestLeaders)
	}
	if len(res.NumClusters) != 0 || len(res.Ds) != 0 {
		t.Fatalf("dishonest-only run reported cluster stats: %v / %v", res.NumClusters, res.Ds)
	}
	if len(res.Reps) != 3 {
		t.Fatalf("Reps has %d entries, want 3", len(res.Reps))
	}
	for it, rep := range res.Reps {
		if rep.HonestLeader || len(rep.Iterations) != 0 {
			t.Fatalf("repetition %d claims honest-leader stats in an all-dishonest world", it)
		}
	}

	// Honest world ⇒ every repetition reports, and the merged NumClusters
	// equals the LAST repetition's counts regardless of completion order
	// (serial and parallel schedules agree).
	for _, serial := range []bool{true, false} {
		truth, _ := Generate(xrand.New(64), n, m, n/b, d, scale)
		w := NewWorld(truth, scale)
		pr := Scaled(n, b)
		pr.MinD, pr.MaxD = d, d
		pr.ByzSerial = serial
		res := RunByzantine(w, xrand.New(65), nil, 3, pr)
		if res.HonestLeaders != 3 {
			t.Fatalf("honest world elected %d/3 honest leaders", res.HonestLeaders)
		}
		last := res.Reps[2]
		if !last.HonestLeader || len(last.Iterations) == 0 {
			t.Fatal("last repetition carries no stats")
		}
		if len(res.NumClusters) != len(last.Iterations) {
			t.Fatalf("NumClusters has %d entries, want %d", len(res.NumClusters), len(last.Iterations))
		}
		for gi, is := range last.Iterations {
			if res.NumClusters[gi] != is.NumClusters || res.Ds[gi] != is.D {
				t.Fatalf("serial=%v: merged stats differ from last repetition at guess %d", serial, gi)
			}
		}
	}
}
