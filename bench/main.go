// Command bench is collabscore's end-to-end benchmark. One run measures one
// workload for a fixed time through the public collabscore API and prints
// its metrics, as its last line, in one JSON object:
//
//	bash bench/run.sh --workload byz-exact-2k --seed 2010 --seconds 25 --trace 0
//
// With --trace 1 the run reports per-layer metrics instead, from a traced
// replay that times each call into the internal packages (spans are written
// to bench/out/trace.json). -collect runs every workload repeatedly in child
// processes and writes all their results to one file; -compare OLD NEW
// judges the difference between two such files metric by metric. See
// bench/README.md for the workloads, the metrics and the file formats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the share
// of the old median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a run with tracing off reports.
var endToEnd = []metricDef{
	{"run_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.1},
	{"max_probes", "probes", "lower", 0.12},
	{"mean_err_over_d", "ratio", "lower", 0.03},
}

// exactMetrics are the end-to-end metrics a seed fixes exactly. Their bounds
// allow for the spread between seeds; -compare, which runs both sides on the
// same seeds, judges any increase a regression.
var exactMetrics = map[string]bool{"max_probes": true, "mean_err_over_d": true}

// perLayer are the metrics a traced run reports.
var perLayer = []metricDef{
	{"prefgen.generate_s", "s", "lower", 0},
	{"world.build_s", "s", "lower", 0},
	{"smallradius.s", "s", "lower", 0},
	{"smallradius.probes", "probes", "lower", 0},
	{"smallradius.alloc_mb", "MB", "lower", 0},
	{"cluster.graph_s", "s", "lower", 0},
	{"cluster.edges", "edges", "lower", 0},
	{"cluster.peel_s", "s", "lower", 0},
	{"cluster.clusters", "clusters", "higher", 0},
	{"cluster.unassigned", "players", "lower", 0},
	{"workshare.publish_s", "s", "lower", 0},
	{"workshare.tally_s", "s", "lower", 0},
	{"workshare.probes", "probes", "lower", 0},
	{"board.writes", "writes", "lower", 0},
	{"board.reads", "reads", "lower", 0},
	{"selection.rselect_s", "s", "lower", 0},
	{"selection.probes", "probes", "lower", 0},
	{"election.s", "s", "lower", 0},
	{"election.honest_leaders", "leaders", "higher", 0},
	{"multival.rep_s", "s", "lower", 0},
	{"multival.probes", "probes", "lower", 0},
	{sweepP50("run"), "ms", "lower", 0},
	{sweepP50("byzantine"), "ms", "lower", 0},
	{sweepP50("budgets"), "ms", "lower", 0},
	{sweepP50("baseline"), "ms", "lower", 0},
	{sweepP50("ratings"), "ms", "lower", 0},
	{"sweep.utilization", "ratio", "higher", 0},
	{"runtime.gc_cpu_frac", "fraction", "lower", 0},
	{"trace.coverage", "fraction", "higher", 0},
	{"trace.overhead_frac", "fraction", "lower", 0},
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: byz-exact-2k, honest-lsh-4k, ratings-2k or sweep-mix")
		seed      = flag.Uint64("seed", 2010, "seed the workload's inputs are drawn from")
		seconds   = flag.Float64("seconds", 25, "how long one run measures")
		trace     = flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay instead of end-to-end metrics")
		traceFile = flag.String("trace-file", filepath.Join("bench", "out", "trace.json"), "where a traced run writes its spans")
		collectTo = flag.String("collect", "", fmt.Sprintf("run every workload %d times, with seeds seed, seed+1, ..., round-robin in child processes, and write the results to this file", collectRuns))
		compare   = flag.Bool("compare", false, "compare two -collect files given as arguments: OLD.json NEW.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files, OLD.json and NEW.json")
			break
		}
		var worse bool
		worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && worse {
			os.Exit(1)
		}
	case *collectTo != "":
		err = collect(*collectTo, *seed, *seconds, *trace, *traceFile)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *traceFile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// runOne runs one workload and prints its result; a run whose outputs fail
// a check prints the result and exits with status 1.
func runOne(name string, seed uint64, seconds float64, traced bool, traceFile string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	var res result
	var problems []string
	if traced {
		t := newTracer()
		if res, problems, err = runTraced(w, seed, seconds, t); err != nil {
			return err
		}
		if err := t.write(traceFile, w.name); err != nil {
			return err
		}
	} else if res, problems, err = runEndToEnd(w, seed, seconds); err != nil {
		return err
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Printf("%-32s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
