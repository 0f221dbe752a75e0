package collabscore_test

// Sweep-engine throughput benchmarks: how fast a scenario grid runs, and
// what the engine adds over running its points one by one. The grid is
// fixed (32 points at n = 128, mixed honest/corrupt, run + byzantine), so
// ns/op is the wall-clock of the whole grid:
//
//   - fresh-serial     — every point standalone (Scenario.Run), one at a
//     time: the baseline.
//   - engine-serial    — the engine with one worker: isolates the engine's
//     own overhead (scheduling, record building).
//   - engine-parallel  — the engine at GOMAXPROCS workers: adds the
//     scheduling win on multi-core hosts.
//
// Every point allocates fresh in all three, and all three produce
// byte-identical record sets (pinned by sweep.TestEngineMatchesStandalone);
// only the time and allocation columns may differ. The committed
// BENCH_PR4.json is an older record of this matrix, with the engine rows
// named pooled-serial and pooled-parallel.

import (
	"testing"

	"collabscore/internal/sweep"
)

// benchGrid is the benchmark's fixed 32-point grid.
func benchGrid(b *testing.B) []sweep.Point {
	b.Helper()
	pts, err := sweep.Expand(sweep.Spec{
		Seed:         2010,
		Trials:       8,
		Players:      []int{128},
		ClusterSizes: []int{16},
		Diameters:    []int{16},
		FixDiameter:  true,
		Dishonest:    []int{0, 5},
		Strategies:   []string{"colluders"},
		Protocols:    []string{"run", "byzantine"},
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(pts) != 32 {
		b.Fatalf("benchmark grid has %d points, want 32", len(pts))
	}
	return pts
}

func BenchmarkSweep(b *testing.B) {
	pts := benchGrid(b)
	points := float64(len(pts))

	b.Run("fresh-serial", func(b *testing.B) {
		var maxErr int
		for i := 0; i < b.N; i++ {
			for _, pt := range pts {
				sc, err := pt.Scenario()
				if err != nil {
					b.Fatal(err)
				}
				rep := sc.Run()
				if rep.MaxError > maxErr {
					maxErr = rep.MaxError
				}
			}
		}
		b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/sec")
		b.ReportMetric(float64(maxErr), "max_err")
	})

	for _, eng := range []struct {
		name    string
		workers int
	}{
		{"engine-serial", 1},
		{"engine-parallel", 0},
	} {
		b.Run(eng.name, func(b *testing.B) {
			var maxErr int
			for i := 0; i < b.N; i++ {
				recs, err := sweep.Run(pts, sweep.Options{Workers: eng.workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, rec := range recs {
					if rec.MaxError > maxErr {
						maxErr = rec.MaxError
					}
				}
			}
			b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/sec")
			b.ReportMetric(float64(maxErr), "max_err")
		})
	}
}
