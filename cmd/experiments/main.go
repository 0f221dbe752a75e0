// Command experiments regenerates the paper-reproduction tables (E1–E13;
// see DESIGN.md §5 for the claim → experiment mapping).
//
// Usage:
//
//	experiments -list
//	experiments -run E9
//	experiments -run all -n 1024 -b 8 -trials 3
//	experiments -run E7 -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"collabscore/internal/experiments"
)

func main() {
	var (
		run    = flag.String("run", "", "experiment id (E1..E13) or 'all'")
		list   = flag.Bool("list", false, "list experiments")
		n      = flag.Int("n", 1024, "base player count")
		b      = flag.Int("b", 8, "base budget parameter")
		trials = flag.Int("trials", 3, "trials per configuration")
		seed   = flag.Uint64("seed", 2010, "random seed")
		quick  = flag.Bool("quick", false, "shrink sweeps for a fast pass")
		csv    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		outDir = flag.String("out", "", "also write one .txt and .csv file per experiment into this directory")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-4s %-28s %s\n", e.ID, e.Title, e.Claim)
		}
		fmt.Println("ablations:")
		for _, e := range experiments.Ablations() {
			fmt.Printf("  %-4s %-28s %s\n", e.ID, e.Title, e.Claim)
		}
		if *run == "" {
			fmt.Println("\nuse -run <id>, -run all, or -run ablations")
		}
		return
	}

	cfg := experiments.Config{N: *n, B: *b, Trials: *trials, Seed: *seed, Quick: *quick}
	var todo []experiments.Experiment
	switch *run {
	case "all":
		todo = experiments.All()
	case "ablations":
		todo = experiments.Ablations()
	case "everything":
		todo = experiments.AllWithAblations()
	default:
		e, ok := experiments.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
			os.Exit(2)
		}
		todo = []experiments.Experiment{e}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *outDir, err)
			os.Exit(1)
		}
	}
	for _, e := range todo {
		start := time.Now()
		tb := e.Run(cfg)
		if *csv {
			fmt.Print(tb.CSV())
		} else {
			fmt.Println(tb.Render())
		}
		fmt.Printf("# %s finished in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *outDir != "" {
			base := filepath.Join(*outDir, e.ID)
			if err := os.WriteFile(base+".txt", []byte(tb.Render()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s.txt: %v\n", base, err)
				os.Exit(1)
			}
			if err := os.WriteFile(base+".csv", []byte(tb.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s.csv: %v\n", base, err)
				os.Exit(1)
			}
			if chart, ok := experiments.ChartFor(e.ID, tb); ok {
				if err := os.WriteFile(base+".svg", []byte(chart.Render()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "writing %s.svg: %v\n", base, err)
					os.Exit(1)
				}
			}
		}
	}
}
