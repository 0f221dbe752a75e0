package budgets

import (
	"reflect"
	"slices"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/core"
	"collabscore/internal/metrics"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// TestCapacityPeelUnitMatchesBuild: with unit capacities a seed's capacity
// sum is one plus its live degree, so the capacity peel must reproduce
// cluster.Build with minSize = needed exactly — clusters, member order, and
// leftover attachments — on random planted graphs.
func TestCapacityPeelUnitMatchesBuild(t *testing.T) {
	rng := xrand.New(63)
	for _, n := range []int{1, 40, 256} {
		in := prefgen.DiameterClusters(rng.Split(uint64(n)), n, 200, max(n/8, 1), 8)
		g := cluster.BuildGraph(in.Truth, 12)
		unit := Uniform(n, 1)
		for _, needed := range []int{1, 3, n / 8, n/4 + 1} {
			want := cluster.Build(g, needed)
			got := buildByCapacity(g, unit, needed)
			if !reflect.DeepEqual(got.Clusters, want.Clusters) || !reflect.DeepEqual(got.Of, want.Of) {
				t.Fatalf("n=%d needed=%d: unit-capacity peel differs from cluster.Build", n, needed)
			}
		}
	}
}

// TestCapacityPeelAttachesLeftovers: a player whose own neighborhood
// cannot reach the needed capacity once its neighbor is peeled joins that
// neighbor's cluster, while an isolated player stays unassigned — on both
// graph representations.
//
//	1 ─ 0 ─ 3 ─ 4      5 (isolated)
//	    │
//	    2
func TestCapacityPeelAttachesLeftovers(t *testing.T) {
	z := []bitvec.Vector{
		bitvec.FromBits([]int{0, 0, 0, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{1, 0, 0, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{0, 1, 0, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 1, 0, 0, 0, 0, 0}),
		bitvec.FromBits([]int{0, 0, 1, 1, 0, 0, 0, 0}),
		bitvec.FromBits([]int{1, 1, 1, 1, 1, 1, 1, 1}),
	}
	// Seed 0's closed neighborhood {0,1,2,3} holds 2+1+1+3 = 7 ≥ 7; player
	// 4 alone holds 5 < 7 once 3 is gone, so it can only attach.
	caps := []int{2, 1, 1, 3, 5, 1}
	const needed = 7
	for _, graph := range []string{"dense", "sparse"} {
		g := cluster.IndexSpec{Graph: graph}.BuildGraph(nil, z, 1, xrand.New(1))
		cl := buildByCapacity(g, caps, needed)
		if want := [][]int{{0, 1, 2, 3, 4}}; !reflect.DeepEqual(cl.Clusters, want) {
			t.Fatalf("%s: clusters %v, want %v", graph, cl.Clusters, want)
		}
		if want := []int{0, 0, 0, 0, 0, -1}; !reflect.DeepEqual(cl.Of, want) {
			t.Fatalf("%s: membership %v, want %v", graph, cl.Of, want)
		}
	}
}

// TestRunSelectsAmongGuesses runs several diameter guesses, so the final
// per-player RSelect chooses among candidate vectors. The largest guess
// alone is inaccurate here (its tiny sample merges every player into one
// cluster), yet the chosen outputs stay O(D)-accurate, are identical under
// every phase schedule, and the run records one IterationStats per guess
// of the ladder, identical under every schedule.
func TestRunSelectsAmongGuesses(t *testing.T) {
	const n, d = 256, 16
	rng := xrand.New(41)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 32, d)
	caps := TwoTier(rng.Split(5), n, 32, 256, 0.5)
	run := func(minD, maxD int, serial bool, workers int) (*core.Result, int) {
		w := world.New(in.Truth)
		pr := core.Scaled(n, 8)
		pr.MinD, pr.MaxD = minD, maxD
		pr.PhaseSerial = serial
		pr.PhaseWorkers = workers
		res := Run(w, rng.Split(2), pr, caps)
		return res, metrics.Error(w, res.Output).Max
	}
	if _, maxErr := run(64, 64, false, 0); maxErr <= 2*d {
		t.Fatalf("largest guess alone has max error %d ≤ %d; the final RSelect would be untested", maxErr, 2*d)
	}
	var ref *core.Result
	for _, sched := range []struct {
		serial  bool
		workers int
	}{{true, 0}, {false, 3}, {false, 0}} {
		res, maxErr := run(2, 64, sched.serial, sched.workers)
		if maxErr > 2*d {
			t.Fatalf("schedule %+v: max error %d > %d", sched, maxErr, 2*d)
		}
		var ds []int
		for _, it := range res.Iterations {
			ds = append(ds, it.D)
		}
		if want := core.Guesses(2, 64, n); !slices.Equal(ds, want) {
			t.Fatalf("schedule %+v: iterations ran guesses %v, want %v", sched, ds, want)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !slices.Equal(res.Iterations, ref.Iterations) {
			t.Fatalf("schedule %+v: iterations %+v differ from serial %+v", sched, res.Iterations, ref.Iterations)
		}
		for p := 0; p < n; p++ {
			if !res.Output[p].Equal(ref.Output[p]) {
				t.Fatalf("schedule %+v: output for player %d differs from serial", sched, p)
			}
		}
	}
}
