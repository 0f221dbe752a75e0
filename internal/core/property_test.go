package core

import (
	"testing"
	"testing/quick"

	"collabscore/internal/adversary"
	"collabscore/internal/metrics"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// TestPropertyHonestErrorBounded: across random small planted instances
// (random seed, random budget, random diameter), the single-guess honest
// protocol error never exceeds 2× the planted diameter.
func TestPropertyHonestErrorBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 256
		bChoices := []int{4, 8}
		b := bChoices[rng.Intn(len(bChoices))]
		// Diameters must stay within the separable regime (≈ m/10 at the
		// scaled constants); see Params.SeparableDiameter.
		dChoices := []int{8, 16}
		d := dChoices[rng.Intn(len(dChoices))]
		if d > Scaled(n, b).SeparableDiameter(n)*3/4 {
			return true // outside the guaranteed regime; skip
		}
		in := prefgen.DiameterClusters(rng.Split(1), n, n, n/b, d)
		w := world.New(in.Truth)
		pr := Scaled(n, b)
		pr.MinD, pr.MaxD = d, d
		res := Run(w, rng.Split(2), pr)
		return metrics.Error(w, res.Output).Max <= 2*d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyByzantineNeverWorseThanGarbage: regardless of corruption
// level (even past tolerance) and strategy, honest outputs are produced for
// every player and error never exceeds m (sanity envelope), and below
// tolerance it stays within 2D.
func TestPropertyByzantineEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(seed uint64, corruptFrac uint8) bool {
		rng := xrand.New(seed)
		const n, b, d = 256, 8, 16
		in := prefgen.DiameterClusters(rng.Split(1), n, n, n/b, d)
		w := world.New(in.Truth)
		pr := Scaled(n, b)
		pr.MinD, pr.MaxD = d, d
		tol := pr.MaxDishonest(n)
		f := int(corruptFrac) % (2 * tol)
		adversary.Corrupt(w, f, rng.Split(3).Perm(n), func(p int) world.Behavior {
			return adversary.RandomLiar{Seed: seed}
		})
		res := RunByzantine(w, rng.Split(2), nil, pr)
		es := metrics.Error(w, res.Output)
		if len(res.Output) != n || es.Max > n {
			return false
		}
		if f <= tol && res.HonestLeaders > 0 && es.Max > 2*d {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyProbeConservation: for random small instances, probe
// accounting is exactly conserved across schedules — the serial reference,
// a fixed-width (forced real goroutines) schedule, and the full parallel
// schedule charge every player identically, and the aggregate views
// (metrics.Probes totals, World.TotalProbes, World.MaxHonestProbes) all
// equal the per-player counters they summarize. This is the property that
// the lock-free CAS memo (world.knownBits) exists to provide: concurrent
// probes of one (player, object) cell must charge exactly once, under any
// interleaving, for both Run and RunByzantine.
func TestPropertyProbeConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	type schedule struct {
		byzSerial    bool
		phaseSerial  bool
		phaseWorkers int
	}
	schedules := []schedule{
		{true, true, 0},   // serial reference
		{true, false, 3},  // fixed-width phases
		{false, false, 0}, // fully parallel
	}
	f := func(seed uint64, byzantine bool) bool {
		rng := xrand.New(seed)
		n := 64 + int(seed%3)*32
		const b = 8
		// d alternates between the small-D easy case (full SmallRadius) and
		// the sampling + workshare path, so conservation is checked on both.
		d := 8 << (seed % 2)
		in := prefgen.DiameterClusters(rng.Split(1), n, n, n/b, d)
		f := int(seed % uint64(n/(3*b)+1))

		var refProbes []int64
		for _, sc := range schedules {
			w := world.New(in.Truth)
			adversary.Corrupt(w, f, rng.Split(3).Perm(n), func(p int) world.Behavior {
				return adversary.RandomLiar{Seed: seed}
			})
			pr := Scaled(n, b)
			pr.MinD, pr.MaxD = d, d
			pr.ByzSerial = sc.byzSerial
			pr.PhaseSerial = sc.phaseSerial
			pr.PhaseWorkers = sc.phaseWorkers
			if byzantine {
				pr.ByzIterations = 3
				RunByzantine(w, rng.Split(2), nil, pr)
			} else {
				Run(w, rng.Split(2), pr)
			}

			// Aggregates must equal the per-player counters they summarize.
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
			ps := metrics.Probes(w)
			if ps.Total != total || ps.Max != honestMax {
				return false
			}

			// And every schedule must charge identically to the reference.
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
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyProbesNeverExceedObjects: probe memoization caps any player's
// probe count at m, whatever the protocol does.
func TestPropertyProbesCapped(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		const n, b = 128, 4
		in := prefgen.DiameterClusters(rng.Split(1), n, n, n/b, 8)
		w := world.New(in.Truth)
		pr := Scaled(n, b)
		Run(w, rng.Split(2), pr)
		for p := 0; p < n; p++ {
			if w.Probes(p) > int64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}
