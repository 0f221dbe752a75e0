// Command sweep runs scenario grids through the sweep engine
// (internal/sweep; DESIGN.md §11): declarative axes expand into
// deterministic per-point seeds, points run across a worker pool, results
// stream to a JSONL file as points complete, and an interrupted sweep
// resumes from its partial output.
//
// The grid comes from a JSON spec file (-grid, the internal/sweep.Spec
// schema) or from axis flags (comma-separated values):
//
//	sweep -n 512,1024 -cluster 64 -d 16,32 -fixd \
//	      -f 0,21 -strategies colluders,cluster-hijackers \
//	      -protocols byzantine -trials 3 -seed 2010 \
//	      -workers 4 -out sweep.jsonl
//
//	sweep -n 512 -cluster 64 -d 32 -fixd -protocols ratings \
//	      -scales 2,5,10 -f 0,21 -strategies exaggerators \
//	      -out ratings.jsonl                            # §8 rating-scale grid
//
//	sweep -n 512 -cluster 64 -d 32 -fixd -protocols budgets \
//	      -captiers 16:256:0.25,16:256:0.5,default \
//	      -out budgets.jsonl                            # §8 capacity-tier grid
//
//	sweep -n 4096,16384 -cluster 256 -d 16 -fixd \
//	      -protocols run -nidx exact,lsh \
//	      -out nidx.jsonl        # exact vs LSH neighbor index, paired seeds
//
//	sweep -grid grid.json -out sweep.jsonl -resume   # continue after a kill
//
// Each completed point appends one JSON line to -out; rerunning with
// -resume skips every point already recorded (a torn final line from a
// mid-write kill is discarded) and runs exactly the missing ones. A
// summary aggregated over the whole grid prints at the end.
//
// Splitting a grid across processes and machines (DESIGN.md §15):
//
//	sweep -n ... -shard 0/3 -out s0.jsonl    # shard i of k: deterministic
//	sweep -n ... -shard 1/3 -out s1.jsonl    # key-hash partition, no
//	sweep -n ... -shard 2/3 -out s2.jsonl    # coordinator; run anywhere
//	sweep -n ... -shard 1/3 -out s1.jsonl -resume   # re-run a killed shard
//	sweep -merge s0.jsonl,s1.jsonl,s2.jsonl -out all.jsonl   # combine shards
//
// Every record is a pure function of its point, so the merged file equals
// a single-process run record for record. -resume refuses, leaving the
// file untouched, when the file holds records for points outside this run
// (another shard's, as in a merged file). SIGINT/SIGTERM stop claiming new
// points: in-flight points flush, the process exits 0, and the JSONL file
// stays resumable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"collabscore/internal/sweep"
)

func main() {
	var (
		grid    = flag.String("grid", "", "JSON grid spec file (internal/sweep.Spec); overrides axis flags")
		ns      = flag.String("n", "", "players axis, comma-separated")
		ms      = flag.String("m", "", "objects axis (0 = players), comma-separated")
		bs      = flag.String("b", "", "budget axis (0 = 8), comma-separated")
		cluster = flag.String("cluster", "", "planted cluster size axis, comma-separated")
		zipf    = flag.String("zipf", "", "Zipf cluster-count axis, comma-separated")
		alphas  = flag.String("alpha", "", "Zipf exponent axis, comma-separated")
		ds      = flag.String("d", "", "planted diameter axis, comma-separated")
		fs      = flag.String("f", "", "dishonest-count axis, comma-separated")
		strats  = flag.String("strategies", "", "dishonest strategy names, comma-separated")
		protos  = flag.String("protocols", "", "protocol variants (run, byzantine, baseline, probe-all, random-guess, ratings, budgets), comma-separated")
		scales  = flag.String("scales", "", "rating-scale axis for the ratings protocol (0 = 5), comma-separated")
		tiers   = flag.String("captiers", "", "capacity-tier axis for the budgets protocol, small:big:frac entries comma-separated")
		nidx    = flag.String("nidx", "", "neighbor-index axis for the clustering protocols (exact, lsh, lsh:BANDS:ROWS; optional +dense/+sparse/+auto graph suffix), comma-separated")
		truth   = flag.String("truth", "", "truth-representation axis (dense, lazy), comma-separated; paired seeds, byte-identical reports")
		trials  = flag.Int("trials", 1, "independent trials per coordinate")
		seed    = flag.Uint64("seed", 2010, "root seed")
		fixd    = flag.Bool("fixd", false, "fix the doubling loop to each point's planted diameter")
		paper   = flag.Bool("paper", false, "use the paper's literal constants")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		out     = flag.String("out", "sweep.jsonl", "JSONL output file")
		resume  = flag.Bool("resume", false, "skip points already recorded in -out")
		opt     = flag.Bool("opt", false, "compute each planted point's exact optimum error (O(n²m) per point)")
		quiet   = flag.Bool("q", false, "suppress per-point progress lines")
		expand  = flag.Bool("expand", false, "print the expanded grid as JSON and exit without running")

		shard = flag.String("shard", "", "run shard i of k of the grid (\"i/k\"): deterministic key-hash partition, no coordinator needed")
		merge = flag.String("merge", "", "merge the given JSONL shard files (comma-separated) into -out and exit")
	)
	flag.Parse()

	stop := trapSignals()

	if *merge != "" {
		mergeMode(strList(*merge), *out)
		return
	}

	var spec sweep.Spec
	if *grid != "" {
		raw, err := os.ReadFile(*grid)
		if err != nil {
			fatal("reading grid spec: %v", err)
		}
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			fatal("parsing grid spec %s: %v", *grid, err)
		}
	} else {
		spec = sweep.Spec{
			Seed:            *seed,
			Trials:          *trials,
			Players:         intList(*ns),
			Objects:         intList(*ms),
			Budgets:         intList(*bs),
			ClusterSizes:    intList(*cluster),
			ZipfClusters:    intList(*zipf),
			ZipfAlphas:      floatList(*alphas),
			Diameters:       intList(*ds),
			Dishonest:       intList(*fs),
			Strategies:      strList(*strats),
			Protocols:       strList(*protos),
			Scales:          intList(*scales),
			CapacityTiers:   tierList(*tiers),
			NeighborIndexes: strList(*nidx),
			TruthSources:    strList(*truth),
			FixDiameter:     *fixd,
			PaperConstants:  *paper,
		}
		if len(spec.Players) == 0 {
			flag.Usage()
			fatal("need -grid or -n")
		}
	}

	points, err := sweep.Expand(spec)
	if err != nil {
		fatal("%v", err)
	}
	if i, k, err := sweep.ParseShard(*shard); err != nil {
		fatal("%v", err)
	} else if k > 1 {
		full := len(points)
		if points, err = sweep.Shard(points, i, k); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "sweep: shard %d/%d owns %d of %d grid points\n", i, k, len(points), full)
	}
	if *expand {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(points); err != nil {
			fatal("%v", err)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "sweep: %d grid points → %s\n", len(points), *out)
	opts := sweep.Options{Workers: *workers, ComputeOpt: *opt, Stop: stop}
	var failed []string
	opts.OnFailure = func(pt sweep.Point, err error) {
		failed = append(failed, pt.Key())
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
	}
	if !*quiet {
		opts.Progress = func(completed, scheduled int, rec sweep.Record) {
			fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s: max_err=%d max_probes=%d\n",
				completed, scheduled, rec.Key, rec.MaxError, rec.MaxProbes)
		}
	}
	recs, err := sweep.RunFile(points, *out, *resume, opts)
	if err != nil {
		fatal("%v", err)
	}
	if len(recs) < len(points) && len(failed) == 0 {
		fmt.Fprintf(os.Stderr, "sweep: interrupted with %d of %d points done — rerun with -resume to finish\n", len(recs), len(points))
	}
	printSummary(recs, failed)
}

// trapSignals converts the first SIGINT/SIGTERM into a closed stop channel:
// the sweep stops claiming new points, flushes in-flight records to the
// JSONL tail, and exits 0 so the file is always resumable. A second signal
// kills the process the old-fashioned way.
func trapSignals() <-chan struct{} {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "sweep: interrupt — finishing in-flight points and flushing (again to abort)")
		close(stop)
		<-sigc
		os.Exit(1)
	}()
	return stop
}

func printSummary(recs []sweep.Record, failed []string) {
	summary := sweep.Aggregate(recs)
	summary.Failures, summary.FailedPoints = len(failed), failed
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(summary); err != nil {
		fatal("%v", err)
	}
}

// mergeMode combines -shard JSONL outputs into one deduplicated file
// (identical duplicate records collapse; conflicting ones abort).
func mergeMode(paths []string, out string) {
	if len(paths) == 0 {
		fatal("-merge needs at least one file")
	}
	recs, err := sweep.MergeFiles(paths...)
	if err != nil {
		fatal("%v", err)
	}
	f, err := os.Create(out)
	if err != nil {
		fatal("%v", err)
	}
	for _, rec := range recs {
		if err := sweep.WriteRecord(f, rec); err != nil {
			fatal("%v", err)
		}
	}
	if err := f.Close(); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "sweep: merged %d records from %d files → %s\n", len(recs), len(paths), out)
	printSummary(recs, nil)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
	os.Exit(1)
}

func intList(s string) []int {
	var out []int
	for _, tok := range strList(s) {
		v, err := strconv.Atoi(tok)
		if err != nil {
			fatal("bad integer %q", tok)
		}
		out = append(out, v)
	}
	return out
}

func floatList(s string) []float64 {
	var out []float64
	for _, tok := range strList(s) {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			fatal("bad float %q", tok)
		}
		out = append(out, v)
	}
	return out
}

func tierList(s string) []sweep.CapTier {
	var out []sweep.CapTier
	for _, tok := range strList(s) {
		ct, err := sweep.ParseCapTier(tok)
		if err != nil {
			fatal("%v", err)
		}
		out = append(out, ct)
	}
	return out
}

func strList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
