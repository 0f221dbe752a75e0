// Sweep: generate the CSV series behind the paper's two headline plots —
// error vs. dishonest fraction (Theorem 14) and probes vs. n (Lemma 11) —
// ready for a plotting tool. Demonstrates driving scenario grids through
// the sweep engine (internal/sweep) instead of hand-rolled loops: each
// series is a declarative Spec, expanded to deterministic per-point seeds
// and run on a worker pool.
//
// Run with:
//
//	go run ./examples/sweep > sweep.csv
//
// Note: since the sweep-engine rebuild the per-point seeds are derived from
// the spec's root seed (independent per coordinate), so the numbers differ
// from the pre-engine output of this example; the CSV columns are
// unchanged. See README.md "Running scenario sweeps".
package main

import (
	"fmt"
	"log"

	"collabscore/internal/sweep"
)

func main() {
	// Series 1: the Theorem 14 shape. One spec, dishonest-count axis; all
	// points share the same planted world (the dishonest axis is excluded
	// from seed derivation), so the error trend isolates the corruption
	// effect exactly.
	series1 := sweep.Spec{
		Name: "error-vs-dishonest", Seed: 11,
		Players:      []int{512},
		ClusterSizes: []int{64},
		Diameters:    []int{32},
		FixDiameter:  true,
		Dishonest:    []int{0, 5, 10, 21, 42, 63},
		Strategies:   []string{"colluders"},
		Protocols:    []string{"byzantine"},
	}
	pts, err := sweep.Expand(series1)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := sweep.Run(pts, sweep.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# series 1: max honest error vs dishonest players (n=512, B=8, D=32, tolerance=21)")
	fmt.Println("series,dishonest,max_error,mean_error,honest_leaders")
	for _, rec := range recs {
		fmt.Printf("byzantine,%d,%d,%.2f,%d/%d\n", rec.Dishonest, rec.MaxError, rec.MeanError,
			rec.HonestLeaders, rec.Repetitions)
	}

	// Series 2: the Lemma 11 shape — probes vs n at a fixed n/32 diameter
	// ratio. The diameter tracks n, so each n is its own one-point spec;
	// Merge glues them into one grid for a single engine run.
	var lists [][]sweep.Point
	for _, n := range []int{512, 1024, 2048} {
		sp := sweep.Spec{
			Name: "probes-vs-n", Seed: 13,
			Players:      []int{n},
			ClusterSizes: []int{n / 8},
			Diameters:    []int{n / 32},
			FixDiameter:  true,
			Protocols:    []string{"run"},
		}
		l, err := sweep.Expand(sp)
		if err != nil {
			log.Fatal(err)
		}
		lists = append(lists, l)
	}
	grid, err := sweep.Merge(lists...)
	if err != nil {
		log.Fatal(err)
	}
	recs, err = sweep.Run(grid, sweep.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# series 2: max probes per player vs n (B=8, D=n/32, single guess)")
	fmt.Println("series,n,protocol_probes,probe_all,ratio")
	for _, rec := range recs {
		fmt.Printf("probes,%d,%d,%d,%.3f\n", rec.Players, rec.MaxProbes, rec.Players,
			float64(rec.MaxProbes)/float64(rec.Players))
	}
}
