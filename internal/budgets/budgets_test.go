package budgets

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/core"
	"collabscore/internal/metrics"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

func TestUniformCapacityMatchesCore(t *testing.T) {
	// Uniform capacities reduce to the homogeneous protocol: error O(D).
	const n, d = 512, 32
	rng := xrand.New(1)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	w := world.New(in.Truth)
	pr := core.Scaled(n, 8)
	pr.MinD, pr.MaxD = d, d
	res := Run(w, rng.Split(2), pr, Uniform(n, 128))
	es := metrics.Error(w, res.Output)
	if es.Max > 2*d {
		t.Fatalf("max error %d > %d", es.Max, 2*d)
	}
	if len(res.Iterations) != 1 || res.Iterations[0].D != d || res.Iterations[0].NumClusters == 0 {
		t.Fatalf("iterations %+v, want one guess at D=%d that forms clusters", res.Iterations, d)
	}
}

func TestTwoTierAccuracy(t *testing.T) {
	const n, d = 512, 32
	rng := xrand.New(3)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	w := world.New(in.Truth)
	caps := TwoTier(rng.Split(5), n, 32, 512, 0.25)
	pr := core.Scaled(n, 8)
	pr.MinD, pr.MaxD = d, d
	res := Run(w, rng.Split(2), pr, caps)
	es := metrics.Error(w, res.Output)
	if es.Max > 2*d {
		t.Fatalf("two-tier max error %d > %d", es.Max, 2*d)
	}
}

func TestLoadProportionalToCapacity(t *testing.T) {
	// Big-capacity players must carry substantially more of the probing
	// work than small-capacity players in the same cluster.
	const n, d = 512, 32
	rng := xrand.New(7)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	w := world.New(in.Truth)
	caps := TwoTier(rng.Split(5), n, 16, 256, 0.5)
	pr := core.Scaled(n, 8)
	pr.MinD, pr.MaxD = d, d
	Run(w, rng.Split(2), pr, caps)
	var bigTotal, bigN, smallTotal, smallN int64
	for p := 0; p < n; p++ {
		if caps[p] == 256 {
			bigTotal += w.Probes(p)
			bigN++
		} else {
			smallTotal += w.Probes(p)
			smallN++
		}
	}
	bigMean := float64(bigTotal) / float64(bigN)
	smallMean := float64(smallTotal) / float64(smallN)
	if bigMean < 2*smallMean {
		t.Fatalf("big-capacity mean %.1f not ≫ small-capacity mean %.1f", bigMean, smallMean)
	}
}

// TestClusterCapacityMeetsNeed: every cluster the capacity peel forms on
// a planted two-tier world holds at least the red·m probes it must
// absorb, and a run on the same world forms clusters at its one guess.
func TestClusterCapacityMeetsNeed(t *testing.T) {
	const n, d = 512, 32
	rng := xrand.New(9)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	caps := TwoTier(rng.Split(5), n, 32, 256, 0.5)
	pr := core.Scaled(n, 8)
	pr.MinD, pr.MaxD = d, d
	needed := n * pr.Redundancy(n)
	cl := buildByCapacity(cluster.BuildGraph(in.Truth, 2*d), caps, needed)
	if len(cl.Clusters) == 0 {
		t.Fatal("the capacity peel formed no clusters")
	}
	for j, members := range cl.Clusters {
		total := 0
		for _, p := range members {
			total += caps[p]
		}
		if total < needed {
			t.Fatalf("cluster %d capacity %d < needed %d", j, total, needed)
		}
	}
	res := Run(world.New(in.Truth), rng.Split(2), pr, caps)
	if len(res.Iterations) != 1 || res.Iterations[0].NumClusters == 0 {
		t.Fatalf("iterations %+v, want one guess that forms clusters", res.Iterations)
	}
}

// TestBoardTrafficRecorded: the capacity-weighted share publishes through
// the bulletin board, so a run over several guesses records board writes
// and reads, and the per-guess traffic sums to the run's totals.
func TestBoardTrafficRecorded(t *testing.T) {
	const n, d = 256, 16
	rng := xrand.New(33)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 32, d)
	w := world.New(in.Truth)
	pr := core.Scaled(n, 8)
	pr.MinD, pr.MaxD = 8, 32
	res := Run(w, rng.Split(2), pr, TwoTier(rng.Split(5), n, 32, 256, 0.5))
	if res.BoardWrites == 0 || res.BoardReads == 0 {
		t.Fatalf("board traffic %d writes, %d reads; want both > 0", res.BoardWrites, res.BoardReads)
	}
	var sumW, sumR int64
	for _, it := range res.Iterations {
		sumW += it.BoardWrites
		sumR += it.BoardReads
	}
	if sumW != res.BoardWrites || sumR != res.BoardReads {
		t.Fatalf("iteration sums (%d,%d) != totals (%d,%d)", sumW, sumR, res.BoardWrites, res.BoardReads)
	}
}

func TestPanicsOnBadCapacity(t *testing.T) {
	rng := xrand.New(11)
	in := prefgen.Uniform(rng.Split(1), 16, 16)
	w := world.New(in.Truth)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short capacity vector")
		}
	}()
	Run(w, rng.Split(2), core.Scaled(16, 4), Uniform(8, 4))
}

func TestTwoTierGenerator(t *testing.T) {
	caps := TwoTier(xrand.New(15), 1000, 8, 64, 0.3)
	big := 0
	for _, c := range caps {
		switch c {
		case 8:
		case 64:
			big++
		default:
			t.Fatalf("unexpected capacity %d", c)
		}
	}
	if big < 220 || big > 380 {
		t.Fatalf("big fraction %d/1000, want ≈300", big)
	}
}

// TestBudgetsScheduleMatrixMatches: the capacity-aware protocol's
// fixed-seed output and probe accounting are identical under the serial
// reference, a fixed-width, and the fully parallel phase schedule
// (PhaseSerial/PhaseWorkers mirror core.Params; DESIGN.md §9, §12).
func TestBudgetsScheduleMatrixMatches(t *testing.T) {
	const n, d = 256, 16
	schedules := []struct {
		name         string
		phaseSerial  bool
		phaseWorkers int
	}{
		{"serial", true, 0},
		{"fixed3", false, 3},
		{"parallel", false, 0},
	}
	rng := xrand.New(21)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 32, d)
	caps := TwoTier(rng.Split(5), n, 16, 128, 0.5)
	var refOut []bitvec.Vector
	var refProbes []int64
	for _, sched := range schedules {
		w := world.New(in.Truth)
		pr := core.Scaled(n, 8)
		pr.MinD, pr.MaxD = d, d
		pr.PhaseSerial = sched.phaseSerial
		pr.PhaseWorkers = sched.phaseWorkers
		res := Run(w, rng.Split(2), pr, caps)
		probes := make([]int64, n)
		for p := 0; p < n; p++ {
			probes[p] = w.Probes(p)
		}
		if refOut == nil {
			refOut = res.Output
			refProbes = probes
			continue
		}
		for p := 0; p < n; p++ {
			if !res.Output[p].Equal(refOut[p]) {
				t.Fatalf("output for player %d differs under %s", p, sched.name)
			}
			if probes[p] != refProbes[p] {
				t.Fatalf("probes for player %d differ under %s: %d vs %d",
					p, sched.name, probes[p], refProbes[p])
			}
		}
	}
}

// TestPropertyBudgetsProbeConservation mirrors core's conservation
// property for the capacity-weighted path: across random capacity mixes
// and schedules, every (player, object) pair charges exactly once — the
// counters are schedule-independent, capped at m, and the aggregates match.
func TestPropertyBudgetsProbeConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 96 + int(seed%2)*32
		const d = 16
		in := prefgen.DiameterClusters(rng.Split(1), n, n, n/8, d)
		caps := TwoTier(rng.Split(5), n, 8+int(seed%8), 64+int(seed%64), 0.25+float64(seed%2)/4)
		var refProbes []int64
		for _, sched := range []struct {
			phaseSerial  bool
			phaseWorkers int
		}{{true, 0}, {false, 3}, {false, 0}} {
			w := world.New(in.Truth)
			pr := core.Scaled(n, 8)
			pr.MinD, pr.MaxD = d, d
			pr.PhaseSerial = sched.phaseSerial
			pr.PhaseWorkers = sched.phaseWorkers
			Run(w, rng.Split(2), pr, caps)
			var total, honestMax int64
			probes := make([]int64, n)
			for p := 0; p < n; p++ {
				probes[p] = w.Probes(p)
				if probes[p] < 0 || probes[p] > int64(n) {
					return false
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
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestMajorityVectorShared pins the allocation contract of the workshare:
// every member of a cluster shares the cluster's one immutable majority
// vector (no per-member clones).
func TestMajorityVectorShared(t *testing.T) {
	const n, d = 256, 16
	rng := xrand.New(31)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 32, d)
	w := world.New(in.Truth)
	pr := core.Scaled(n, 8)
	pr.MinD, pr.MaxD = d, d
	res := Run(w, rng.Split(2), pr, Uniform(n, 128))
	shared := 0
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			if bitvec.SameStorage(res.Output[p], res.Output[q]) {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two cluster members share a majority vector — the clone removal regressed")
	}
}

// TestNeighborIndexLSHMatchesExact pins the seam on the budgets path: on a
// planted two-tier world at the paper-regime threshold, the banding index
// yields the identical outputs, cluster counts and capacities, and probe
// charges as the exact oracle.
func TestNeighborIndexLSHMatchesExact(t *testing.T) {
	const n, d = 512, 16
	rng := xrand.New(6)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	caps := TwoTier(rng.Split(2), n, 32, 512, 0.25)

	run := func(spec cluster.IndexSpec) (*core.Result, *world.World) {
		w := world.New(in.Truth)
		pr := core.Scaled(n, 8)
		pr.MinD, pr.MaxD = d, d
		pr.NeighborIndex = spec
		return Run(w, xrand.New(6).Split(3), pr, caps), w
	}
	ref, refW := run(cluster.IndexSpec{})
	got, gotW := run(cluster.IndexSpec{Kind: "lsh"})

	if !slices.Equal(got.Iterations, ref.Iterations) {
		t.Fatalf("LSH iterations %+v, exact %+v", got.Iterations, ref.Iterations)
	}
	for p := 0; p < n; p++ {
		if got.Output[p].Hamming(ref.Output[p]) != 0 {
			t.Fatalf("player %d output differs between LSH and exact", p)
		}
		if gotW.Probes(p) != refW.Probes(p) {
			t.Fatalf("player %d probes %d (lsh) vs %d (exact)", p, gotW.Probes(p), refW.Probes(p))
		}
	}
}

// TestNeighborIndexSparseMatchesDense pins the graph representation on the
// budgets path (DESIGN.md §16): the capacity-aware peel fed a sparse CSR
// graph yields the identical outputs, cluster counts and capacities, and
// probe charges as the dense bitset, for both exact and LSH discovery.
func TestNeighborIndexSparseMatchesDense(t *testing.T) {
	const n, d = 512, 16
	rng := xrand.New(6)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	caps := TwoTier(rng.Split(2), n, 32, 512, 0.25)

	run := func(spec cluster.IndexSpec) (*core.Result, *world.World) {
		w := world.New(in.Truth)
		pr := core.Scaled(n, 8)
		pr.MinD, pr.MaxD = d, d
		pr.NeighborIndex = spec
		return Run(w, xrand.New(6).Split(3), pr, caps), w
	}
	for _, kind := range []string{"", "lsh"} {
		ref, refW := run(cluster.IndexSpec{Kind: kind, Graph: "dense"})
		got, gotW := run(cluster.IndexSpec{Kind: kind, Graph: "sparse"})

		if !slices.Equal(got.Iterations, ref.Iterations) {
			t.Fatalf("kind=%q: sparse iterations %+v, dense %+v", kind, got.Iterations, ref.Iterations)
		}
		for p := 0; p < n; p++ {
			if got.Output[p].Hamming(ref.Output[p]) != 0 {
				t.Fatalf("kind=%q: player %d output differs between representations", kind, p)
			}
			if gotW.Probes(p) != refW.Probes(p) {
				t.Fatalf("kind=%q: player %d probes %d (sparse) vs %d (dense)",
					kind, p, gotW.Probes(p), refW.Probes(p))
			}
		}
	}
}

// TestLSHScheduleMatrix: the budgets protocol with the banding index is
// byte-identical across phase schedules, like every other configuration.
func TestLSHScheduleMatrix(t *testing.T) {
	const n, d = 256, 16
	rng := xrand.New(8)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 32, d)
	caps := TwoTier(rng.Split(2), n, 16, 256, 0.3)

	var ref *core.Result
	for _, sched := range []struct {
		serial  bool
		workers int
	}{{true, 0}, {false, 0}, {false, 3}} {
		w := world.New(in.Truth)
		pr := core.Scaled(n, 8)
		pr.MinD, pr.MaxD = d, d
		pr.NeighborIndex = cluster.IndexSpec{Kind: "lsh", Bands: 12, Rows: 10}
		pr.PhaseSerial = sched.serial
		pr.PhaseWorkers = sched.workers
		res := Run(w, xrand.New(8).Split(3), pr, caps)
		if ref == nil {
			ref = res
			continue
		}
		for p := 0; p < n; p++ {
			if res.Output[p].Hamming(ref.Output[p]) != 0 {
				t.Fatalf("schedule %+v: player %d output differs from serial", sched, p)
			}
		}
	}
}

// pubSeen is the published state one report observed.
type pubSeen struct {
	phase              string
	d                  int
	sample, clustering bool
}

// pubRecorder is a dishonest behavior that reports the truth and logs the
// published state every report sees, in report order under PhaseSerial.
type pubRecorder struct {
	mu  *sync.Mutex
	log *[]pubSeen
}

func (r pubRecorder) Report(rc *world.Run, p, o int) bool {
	r.mu.Lock()
	*r.log = append(*r.log, pubSeen{rc.Pub.Phase, rc.Pub.TargetDiameter, rc.Pub.HasSample(), rc.Pub.Clusters != nil})
	r.mu.Unlock()
	return rc.PeekTruth(p, o)
}

// TestPublishedStatePerGuess: the capacity variant publishes the same
// state to adversaries as core on the shared doubling loop. Over a
// two-guess ladder every report sees TargetDiameter equal to its guess,
// and each guess runs smallradius with the sample published (the sample
// phase itself draws no reports), then workshare with the sample and the
// clusters published.
func TestPublishedStatePerGuess(t *testing.T) {
	const n, b = 256, 8
	ladder := []int{32, 64}
	in := prefgen.DiameterClusters(xrand.New(71).Split(1), n, n, n/b, 16)
	runs := map[string]func(w *world.World){
		"core": func(w *world.World) {
			pr := core.Scaled(n, b)
			pr.MinD, pr.MaxD, pr.PhaseSerial = ladder[0], ladder[1], true
			core.Run(w, xrand.New(72), pr)
		},
		"budgets": func(w *world.World) {
			pr := core.Scaled(n, 8)
			pr.MinD, pr.MaxD, pr.PhaseSerial = ladder[0], ladder[1], true
			Run(w, xrand.New(72), pr, Uniform(n, 128))
		},
	}
	for name, run := range runs {
		var mu sync.Mutex
		var log []pubSeen
		w := world.New(in.Truth)
		for p := 0; p < n; p += 16 {
			w.SetBehavior(p, pubRecorder{&mu, &log})
		}
		run(w)
		type segment struct {
			d     int
			phase string
		}
		var segs []segment
		for _, s := range log {
			if want := s.phase == "workshare"; !s.sample || s.clustering != want {
				t.Fatalf("%s: a report in phase %q at D=%d saw sample %v, clusters %v", name, s.phase, s.d, s.sample, s.clustering)
			}
			if len(segs) == 0 || segs[len(segs)-1] != (segment{s.d, s.phase}) {
				segs = append(segs, segment{s.d, s.phase})
			}
		}
		var want []segment
		for _, d := range ladder {
			want = append(want, segment{d, "smallradius"}, segment{d, "workshare"})
		}
		if !slices.Equal(segs, want) {
			t.Fatalf("%s: reports saw (D, phase) runs %v, want %v", name, segs, want)
		}
	}
}
