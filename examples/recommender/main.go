// Recommender: the §8 non-binary extension on a synthetic streaming-service
// population, driven through the sweepable scenario path. Users rate titles
// on an integer scale, taste groups have bounded L1 spread, and a fraction
// of accounts are bots that rate at the extremes; median aggregation inside
// taste clusters absorbs the bots.
//
// Since PR 5 the rating protocol is a first-class sweep protocol
// (ProtoRatings), so instead of one hand-built simulation this example
// expands a small grid over the RATING SCALE — the §8 axis the unified
// engine opened — with paired honest/bot columns per scale, runs it
// through the sweep engine, and prints the table.
//
// Run with:
//
//	go run ./examples/recommender
package main

import (
	"fmt"

	"collabscore"
	"collabscore/internal/sweep"
)

func main() {
	const (
		users  = 512
		titles = 512
		budget = 8
		spread = 32 // L1 taste spread within a group
	)

	spec := sweep.Spec{
		Name:         "recommender-scales",
		Seed:         99,
		Players:      []int{users},
		ClusterSizes: []int{users / budget},
		Diameters:    []int{spread},
		FixDiameter:  true,
		Dishonest:    []int{0, users / (3 * budget)},
		Strategies:   []string{collabscore.Exaggerators.String()},
		Protocols:    []string{collabscore.ProtoRatings.String()},
		Scales:       []int{2, 5, 10},
	}
	points, err := sweep.Expand(spec)
	if err != nil {
		panic(err)
	}
	bots := users / (3 * budget)
	fmt.Printf("%d users × %d titles; taste spread %d; %d bots rating at the extremes.\n",
		users, titles, spread, bots)
	fmt.Printf("sweeping the rating scale over %v → %d grid points\n\n",
		spec.Scales, len(points))

	recs, err := sweep.Run(points, sweep.Options{})
	if err != nil {
		panic(err)
	}

	fmt.Printf("%-8s %-6s %-12s %-12s %-12s %s\n",
		"scale", "bots", "max L1 err", "mean L1 err", "max probes", "honest leaders")
	for _, rec := range recs {
		fmt.Printf("0–%-6d %-6d %-12d %-12.1f %-12d %d/%d\n",
			rec.Scale, rec.Dishonest, rec.MaxError, rec.MeanError,
			rec.MaxProbes, rec.HonestLeaders, rec.Repetitions)
	}

	fmt.Printf("\nEvery user rated at most a fraction of the %d titles personally;\n", titles)
	fmt.Printf("the bot columns stay within the taste spread because cluster medians\n")
	fmt.Printf("absorb extremist ratings (Lemma 13's rank-statistics analogue).\n")
}
