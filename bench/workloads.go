package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"collabscore"
	"collabscore/internal/bitvec"
	"collabscore/internal/election"
	"collabscore/internal/sweep"
	"collabscore/internal/xrand"
)

// workload is one named set of inputs. Exactly one of scen and grid is set.
type workload struct {
	name string
	why  string
	scen *scenarioSpec
	grid *gridSpec
}

// workloads are the benchmark's inputs. Every scenario plants clusters of
// n/8 players with diameter D = m/32 and fixes the doubling loop to that one
// guess: the full loop degenerates to probing everything at these sizes.
var workloads = []workload{
	{
		name: "byz-exact-2k",
		why:  "Byzantine protocol, n=m=2048, n/24 cluster hijackers: elections, parallel repetitions, exact O(n^2) graph sweep, workshare with dishonest writers, RSelect over 5 candidates",
		scen: &scenarioSpec{n: 2048, protocol: collabscore.ProtoByzantine, strategy: collabscore.ClusterHijackers, dishonest: true, count: 8, honestLeaders: 4},
	},
	{
		name: "honest-lsh-4k",
		why:  "honest protocol, n=m=4096, LSH index, sparse graph, lazy truth: SmallRadius and the lazy probe path dominate; no election, exact sweep or dense truth",
		scen: &scenarioSpec{n: 4096, protocol: collabscore.ProtoRun, nidx: "lsh+sparse", truth: "lazy", count: 8},
	},
	{
		name: "ratings-2k",
		why:  "rating protocol on a 0..5 scale, n=m=2048, n/24 exaggerators: bit-plane L1 graph and median workshare; bypasses SmallRadius and the binary board",
		scen: &scenarioSpec{n: 2048, protocol: collabscore.ProtoRatings, strategy: collabscore.Exaggerators, dishonest: true, count: 8, honestLeaders: 4},
	},
	{
		name: "sweep-mix",
		why:  "72-point grid at n=256,512 over five protocols, honest and n/24 liars, on nproc workers: per-point set-up, Pool reuse, budgets and baseline, scheduling",
		grid: &gridSpec{players: []int{256, 512}, trials: 2},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scenarioSpec describes the scenarios of one workload.
type scenarioSpec struct {
	n           int
	protocol    collabscore.Protocol
	strategy    collabscore.Strategy
	dishonest   bool // n/24 players follow strategy: the tolerance n/(3B) at B = 8
	nidx, truth string
	count       int // scenarios per run
	// honestLeaders, when positive, keeps only scenarios whose Byzantine
	// elections pick exactly this many honest leaders. Each honest-leader
	// repetition runs the whole protocol while the others run none, so the
	// count sets a scenario's work; fixing it at its most frequent value
	// keeps run time comparable across seeds and still runs both branches.
	honestLeaders int
}

func (s scenarioSpec) scenario(seed uint64) collabscore.Scenario {
	d := s.n / 32
	sc := collabscore.Scenario{
		Config:      collabscore.Config{Players: s.n, Seed: seed, FixedDiameter: d, NeighborIndex: s.nidx, TruthSource: s.truth},
		ClusterSize: s.n / 8,
		Diameter:    d,
		Protocol:    s.protocol,
	}
	if s.dishonest {
		sc.Dishonest, sc.Strategy = s.n/24, s.strategy
	}
	return sc
}

// prepared is a scenario set up and ready to run: its binary Simulation, or
// for ProtoRatings its RatingSimulation.
type prepared struct {
	sc  collabscore.Scenario
	sim *collabscore.Simulation
	rs  *collabscore.RatingSimulation
}

// prepare is a scenario's set-up: Scenario.Build, or NewRatingSimulation and
// Corrupt for ratings.
func prepare(sc collabscore.Scenario) *prepared {
	if sc.Protocol != collabscore.ProtoRatings {
		return &prepared{sc: sc, sim: sc.Build(nil)}
	}
	rs := collabscore.NewRatingSimulation(collabscore.RatingConfig{
		Players: sc.Players, Objects: sc.Objects, Scale: sc.Scale, Budget: sc.Budget,
		Seed: sc.Seed, FixedDiameter: sc.FixedDiameter, TruthSource: sc.TruthSource,
	}, sc.ClusterSize, sc.Diameter)
	if sc.Dishonest > 0 {
		rs.Corrupt(sc.Dishonest, sc.Strategy)
	}
	return &prepared{sc: sc, rs: rs}
}

// byzantine reports whether the scenario runs the Byzantine wrapper.
func (p *prepared) byzantine() bool {
	return p.sc.Protocol == collabscore.ProtoByzantine || p.sc.Protocol == collabscore.ProtoRatings
}

// honestLeaders predicts how many of the scenario's Byzantine repetitions
// elect an honest leader, by running the elections on the run's streams.
func (p *prepared) honestLeaders() int {
	var roster election.Roster
	var el election.Params
	var reps int
	if p.rs != nil {
		roster, el, reps = p.rs.World(), election.Defaults(), ratingReps
	} else {
		pr := p.sim.Params()
		roster, el, reps = p.sim.World(), pr.Election, max(pr.ByzIterations, 1)
	}
	trueRng := xrand.New(p.sc.Seed).Split(tagByzantine)
	h := 0
	for it := 0; it < reps; it++ {
		if electLeader(roster, trueRng, it, el) {
			h++
		}
	}
	return h
}

// outcome is one scenario run or sweep point, reduced to what the benchmark
// checks and reports.
type outcome struct {
	key           string
	digest        [32]byte
	maxError      int
	diameter      int
	maxProbes     int64
	totalProbes   int64
	honestLeaders int
	byzantine     bool
}

// check returns why an outcome is wrong, or "" when it passes: the error
// must stay within the planted diameter, and a Byzantine run needs an honest
// leader.
func (o outcome) check() string {
	if o.maxError > o.diameter {
		return fmt.Sprintf("%s: max error %d exceeds D = %d", o.key, o.maxError, o.diameter)
	}
	if o.byzantine && o.honestLeaders < 1 {
		return fmt.Sprintf("%s: no honest leader", o.key)
	}
	return ""
}

// run executes the scenario's protocol once and returns its outcome and the
// wall time of the protocol call alone.
func (p *prepared) run() (outcome, time.Duration) {
	o := outcome{key: fmt.Sprintf("seed=%d", p.sc.Seed), diameter: p.sc.Diameter, byzantine: p.byzantine()}
	start := time.Now()
	if p.rs != nil {
		r := p.rs.RunByzantine(0)
		took := time.Since(start)
		o.digest = ratingDigest(r.Outputs, r.MaxL1Error, r.TotalProbes)
		o.maxError, o.maxProbes, o.totalProbes, o.honestLeaders = r.MaxL1Error, int64(r.MaxProbes), r.TotalProbes, r.HonestLeaders
		return o, took
	}
	r := p.sc.Execute(p.sim)
	took := time.Since(start)
	o.digest = binaryDigest(r.Outputs, r.MaxError, r.TotalProbes)
	o.maxError, o.maxProbes, o.totalProbes, o.honestLeaders = r.MaxError, r.MaxProbes, r.TotalProbes, r.HonestLeaders
	return o, took
}

// digest is the SHA-256 of the 64-bit values outputs feeds it, then of a
// run's max error and total probes.
func digest(outputs func(put func(uint64)), maxErr int, total int64) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	outputs(put)
	put(uint64(maxErr))
	put(uint64(total))
	return [32]byte(h.Sum(nil))
}

// binaryDigest digests a binary run: its output vectors' words.
func binaryDigest(outs []bitvec.Vector, maxErr int, total int64) [32]byte {
	return digest(func(put func(uint64)) {
		for _, v := range outs {
			for wi := 0; wi < v.Words(); wi++ {
				put(v.Word(wi))
			}
		}
	}, maxErr, total)
}

// ratingDigest digests a rating run: its output rows' ratings.
func ratingDigest(rows [][]int, maxErr int, total int64) [32]byte {
	return digest(func(put func(uint64)) {
		for _, row := range rows {
			for _, r := range row {
				put(uint64(r))
			}
		}
	}, maxErr, total)
}

// settle collects garbage before a timed section, so that every section
// starts from the same heap and pays for no garbage an earlier one left. It
// also makes the process's peak memory that of one section: without it,
// peak_rss_mb read 95–105 MB on ratings-2k with one seed; with it, 57 MB.
func settle() { runtime.GC() }

// maxDraws bounds the seeds tried for one workload's scenarios.
const maxDraws = 200

// minSetups is the fewest set-ups a run times, so that setup_s is a median
// over several even when a workload accepts every scenario it draws. A
// sweep run times exactly this many instantiations of its grid.
const minSetups = 8

// setup draws the run's scenarios from seed and sets each up. It returns
// the accepted scenarios and the time of every set-up, rejected ones
// included; the first set-up of the process, which also grows its heap, is
// repeated and only the repeat is timed.
func (s scenarioSpec) setup(seed uint64) ([]*prepared, []float64, error) {
	root := xrand.New(seed)
	var items []*prepared
	var times []float64
	timed := func(sc collabscore.Scenario) *prepared {
		settle()
		start := time.Now()
		p := prepare(sc)
		times = append(times, time.Since(start).Seconds())
		return p
	}
	for draw := 0; len(items) < s.count; draw++ {
		if draw == maxDraws {
			return nil, nil, fmt.Errorf("no scenario with %d honest leaders in %d seeds", s.honestLeaders, maxDraws)
		}
		sc := s.scenario(root.Split(uint64(draw)).Uint64())
		if draw == 0 {
			prepare(sc)
		}
		p := timed(sc)
		if s.honestLeaders > 0 && p.honestLeaders() != s.honestLeaders {
			continue
		}
		items = append(items, p)
	}
	for i := 0; len(times) < minSetups; i++ {
		timed(items[i%len(items)].sc)
	}
	return items, times, nil
}

// gridSpec describes the sweep-mix grid: for each player count n, planted
// clusters of n/8 at D ∈ {n/32, n/16} and trials, under the run, byzantine,
// baseline and ratings protocols with 0 or n/24 random liars, and under the
// budgets protocol with everyone honest.
type gridSpec struct {
	players []int
	trials  int
}

// points expands the grid with its point seeds drawn from seed.
func (g gridSpec) points(seed uint64) ([]sweep.Point, error) {
	var lists [][]sweep.Point
	for _, n := range g.players {
		base := sweep.Spec{
			Seed:         seed,
			Trials:       g.trials,
			Players:      []int{n},
			ClusterSizes: []int{n / 8},
			Diameters:    []int{n / 32, n / 16},
			FixDiameter:  true,
		}
		mixed := base
		mixed.Dishonest = []int{0, n / 24}
		mixed.Strategies = []string{collabscore.RandomLiar.String()}
		mixed.Protocols = []string{"run", "byzantine", "baseline", "ratings"}
		// The budgets protocol has no Byzantine wrapper, and its final spot
		// check does not survive liars at these sizes. Its default capacity
		// tier (m/32 small) leaves no cluster able to cover the work below
		// n = 512, and at n/4 small 1.4 % of its points miss D (0.6 % at n/2).
		budgets := base
		budgets.Protocols = []string{"budgets"}
		budgets.CapacityTiers = []sweep.CapTier{{Small: n / 2, Big: n, BigFrac: 0.25}}
		for _, sp := range []sweep.Spec{mixed, budgets} {
			pts, err := sweep.Expand(sp)
			if err != nil {
				return nil, err
			}
			lists = append(lists, pts)
		}
	}
	return sweep.Merge(lists...)
}

// instantiate sets up every point of the grid once, the per-point work a
// sweep repeats inside each pass, and returns the set-up scenarios.
func instantiate(pts []sweep.Point) ([]*prepared, error) {
	out := make([]*prepared, len(pts))
	for i, pt := range pts {
		sc, err := pt.Scenario()
		if err != nil {
			return nil, err
		}
		out[i] = prepare(sc)
	}
	return out, nil
}

// gridSeeds is how many grids sweep-mix runs: seed picks the grid of seed
// 1 + seed mod gridSeeds. Every point of these grids passes its checks. The
// protocols succeed only with high probability, and at n ≤ 512 some grid
// seeds (17 and 25, the first two past these) have a point whose error
// exceeds D. A run never swaps its grid for another, so a grid that stops
// passing fails the run.
const gridSeeds = 16

// setup returns the grid that seed picks, the times of minSetups
// instantiations of it, and the outcomes of a warm-up pass on every worker.
func (g gridSpec) setup(seed uint64, workers int) ([]sweep.Point, []float64, []outcome, error) {
	gridSeed := 1 + seed%gridSeeds
	var times []float64
	var pts []sweep.Point
	for r := 0; r < minSetups; r++ {
		settle()
		start := time.Now()
		var err error
		if pts, err = g.points(gridSeed); err != nil {
			return nil, nil, nil, err
		}
		if _, err = instantiate(pts); err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	warm, err := runGrid(pts, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	return pts, times, warm, nil
}

// runGrid runs one pass of the grid on workers workers and returns an
// outcome per point that completed; points that panicked have none.
func runGrid(pts []sweep.Point, workers int) ([]outcome, error) {
	recs, err := sweep.Run(pts, sweep.Options{Workers: workers, OnFailure: func(sweep.Point, error) {}})
	if err != nil {
		return nil, err
	}
	out := make([]outcome, len(recs))
	for i, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		out[i] = outcome{
			key:           rec.Key,
			digest:        sha256.Sum256(b),
			maxError:      rec.MaxError,
			diameter:      rec.Diameter,
			maxProbes:     rec.MaxProbes,
			totalProbes:   rec.TotalProbes,
			honestLeaders: rec.HonestLeaders,
			byzantine:     rec.Protocol == "byzantine" || rec.Protocol == "ratings",
		}
	}
	return out, nil
}

// result is what one run of the benchmark prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checker accumulates outcomes: it checks each one, requires every repeat of
// a key to reproduce the first one's digest, and tracks the probe maximum
// and the mean error-to-diameter ratio.
type checker struct {
	first     map[string][32]byte
	attempted int
	failed    int
	problems  []string
	maxProbes int64
	errOverD  []float64
}

func newChecker() *checker { return &checker{first: make(map[string][32]byte)} }

func (c *checker) add(o outcome) {
	c.attempted++
	problem := o.check()
	if d, seen := c.first[o.key]; !seen {
		c.first[o.key] = o.digest
		c.errOverD = append(c.errOverD, float64(o.maxError)/float64(o.diameter))
	} else if d != o.digest && problem == "" {
		problem = o.key + ": output differs between runs"
	}
	if problem != "" {
		c.fail(problem)
	}
	c.maxProbes = max(c.maxProbes, o.maxProbes)
}

// fail counts one attempt already counted as failed.
func (c *checker) fail(why string) {
	c.failed++
	c.problems = append(c.problems, why)
}

// missing counts n attempts that produced no outcome.
func (c *checker) missing(n int, why string) {
	for i := 0; i < n; i++ {
		c.attempted++
		c.fail(why)
	}
}

// pass adds the outcomes of a grid pass over pts and counts every point
// without one, which panicked, as failed.
func (c *checker) pass(pts []sweep.Point, outs []outcome) {
	for _, o := range outs {
		c.add(o)
	}
	c.missing(len(pts)-len(outs), "a grid point panicked")
}

// meanErrOverD is the mean over distinct scenarios or points of MaxError/D.
func (c *checker) meanErrOverD() float64 {
	var sum float64
	for _, r := range c.errOverD {
		sum += r
	}
	return sum / float64(max(len(c.errOverD), 1))
}

// runEndToEnd measures a workload for seconds with tracing off. A scenario
// workload runs its scenarios round-robin until seconds have passed and
// each has run twice; the first run of the process, which grows its heap,
// is checked but not timed. The sweep workload runs grid passes after the
// warm-up pass its set-up makes, until seconds have passed.
func runEndToEnd(w workload, seed uint64, seconds float64) (result, []string, error) {
	c := newChecker()
	var setups, times []float64
	window := time.Duration(seconds * float64(time.Second))
	if w.scen != nil {
		items, st, err := w.scen.setup(seed)
		if err != nil {
			return result{}, nil, err
		}
		setups = st
		runs := make([]int, len(items))
		deadline := time.Now().Add(window)
		for i := 0; ; i = (i + 1) % len(items) {
			settle()
			o, took := items[i].run()
			if c.attempted > 0 {
				times = append(times, took.Seconds())
			}
			c.add(o)
			runs[i]++
			if time.Now().After(deadline) && slices.Min(runs) >= 2 {
				break
			}
		}
	} else {
		workers := runtime.GOMAXPROCS(0)
		pts, st, warm, err := w.grid.setup(seed, workers)
		if err != nil {
			return result{}, nil, err
		}
		setups = st
		c.pass(pts, warm)
		deadline := time.Now().Add(window)
		for len(times) == 0 || time.Now().Before(deadline) {
			settle()
			start := time.Now()
			outs, err := runGrid(pts, workers)
			if err != nil {
				return result{}, nil, err
			}
			times = append(times, time.Since(start).Seconds())
			c.pass(pts, outs)
		}
	}
	res := result{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics: map[string]metricValue{
			"run_s":           {medianOf(times), "s"},
			"setup_s":         {medianOf(setups), "s"},
			"peak_rss_mb":     {peakRSSMB(), "MB"},
			"max_probes":      {float64(c.maxProbes), "probes"},
			"mean_err_over_d": {c.meanErrOverD(), "ratio"},
		},
	}
	return res, c.problems, nil
}
