// Command collabscore runs a single collaborative-scoring simulation from
// the command line and prints a report.
//
// Usage:
//
//	collabscore -n 1024 -b 8 -diameter 32 -dishonest 40 -strategy random-liar -byzantine
//
// Flags:
//
//	-n          number of players (objects default to the same)
//	-m          number of objects (0 = n)
//	-b          budget parameter B
//	-diameter   planted cluster diameter (clusters of size n/B), at least 0
//	-fixed-d    restrict the protocol to the single (correct) diameter guess
//	-dishonest  number of dishonest players, 0..n (max tolerated: n/(3B))
//	-strategy   random-liar | flip-all | colluders | cluster-hijackers |
//	            strange-object | zero-spam (the names Strategy.String prints)
//	-byzantine  run the full §7 protocol with leader election
//	-baseline   also run the prior-art baseline and probe-all for comparison
//	-seed       RNG seed
package main

import (
	"flag"
	"fmt"
	"os"

	"collabscore"
)

func main() {
	var (
		n         = flag.Int("n", 1024, "number of players")
		m         = flag.Int("m", 0, "number of objects (0 = n)")
		b         = flag.Int("b", 8, "budget parameter B")
		diameter  = flag.Int("diameter", 32, "planted cluster diameter")
		fixedD    = flag.Bool("fixed-d", false, "restrict to the correct diameter guess")
		dishonest = flag.Int("dishonest", 0, "number of dishonest players")
		strategy  = flag.String("strategy", "random-liar", "dishonest strategy")
		byzantine = flag.Bool("byzantine", false, "run the full Byzantine protocol (§7)")
		baseline  = flag.Bool("baseline", false, "also run baselines for comparison")
		seed      = flag.Uint64("seed", 2010, "random seed")
		verbose   = flag.Bool("v", false, "print per-diameter-guess iteration statistics")
	)
	flag.Parse()

	strat, err := collabscore.ParseStrategy(*strategy)
	switch {
	case err != nil:
		usage("%v", err)
	case !strat.BinaryCapable():
		usage("strategy %s is rating-scale only", strat)
	case *n < 1:
		usage("-n must be at least 1")
	case *b < 1 || *b > *n:
		usage("-b must be between 1 and -n (clusters hold n/b players)")
	case *m < 0:
		usage("-m must not be negative")
	case *dishonest < 0 || *dishonest > *n:
		usage("-dishonest must be between 0 and -n")
	case *diameter < 0:
		usage("-diameter must not be negative")
	}

	cfg := collabscore.Config{Players: *n, Objects: *m, Budget: *b, Seed: *seed}
	if *fixedD {
		cfg.FixedDiameter = *diameter
	}
	sim := collabscore.NewSimulation(cfg)
	sim.PlantClusters(*n / *b, *diameter)
	if *dishonest > 0 {
		sim.Corrupt(*dishonest, strat)
		fmt.Printf("corrupted %d players with %s (tolerance %d)\n", *dishonest, strat, sim.Tolerance())
	}

	var rep *collabscore.Report
	if *byzantine {
		fmt.Println("running CalculatePreferences with leader election (§7)...")
		rep = sim.RunByzantine()
	} else {
		fmt.Println("running CalculatePreferences with trusted shared coins (§6)...")
		rep = sim.Run()
	}
	fmt.Printf("protocol: %s\n", rep)
	if *verbose {
		fmt.Printf("bulletin board traffic: %d writes, %d reads\n", rep.CommWrites, rep.CommReads)
		for _, it := range rep.Iterations {
			if it.FullSmallRadius {
				fmt.Printf("  D=%-5d full SmallRadius on all objects (small-D easy case)\n", it.D)
				continue
			}
			fmt.Printf("  D=%-5d |S|=%-5d clusters=%-3d min=%-4d unassigned=%d\n",
				it.D, it.SampleSize, it.Clusters, it.MinCluster, it.Unassigned)
		}
	}

	if *baseline {
		fmt.Printf("baseline [2,3]: %s\n", sim.RunBaseline())
		fmt.Printf("probe-all: %s\n", sim.RunProbeAll())
		fmt.Printf("random-guess: %s\n", sim.RunRandomGuess())
	}
}

// usage reports a bad flag value and exits with status 2, as flag.Parse
// does for a malformed flag.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
