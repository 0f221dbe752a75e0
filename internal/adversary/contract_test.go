package adversary

import (
	"fmt"
	"sync"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// contractBehaviors enumerates every Behavior this package exports, each
// under the published protocol states it reacts to. The package contract
// (see the package comment) is per-(player, object) determinism within a
// run: protocols may ask for the same report through different code paths
// — Report, ReportVector, ReportWord, possibly from concurrent phase
// goroutines — and a strategy that flip-flops is weaker than a consistent
// liar. Flipflopper violates the contract on purpose and is tested
// separately (TestFlipflopperFlipFlops); any NEW stateful strategy added to
// this package must either appear here and hold the contract, or join
// Flipflopper in the documented-exception list.
func contractBehaviors(n int) map[string]world.Behavior {
	return map[string]world.Behavior{
		"RandomLiar":            RandomLiar{Seed: 0xC0},
		"FlipAll":               FlipAll{},
		"ZeroSpam":              ZeroSpam{},
		"Colluder":              NewColluder(0xC1, 64),
		"ClusterHijacker":       ClusterHijacker{Victim: 1},
		"StrangeObjectAttacker": StrangeObjectAttacker{Seed: 0xC2},
		"MimicThenFlip":         MimicThenFlip{},
		"Combined":              Combined{Victim: 2, Seed: 0xC3},
		"Honest":                world.Honest{},
	}
}

// contractRun builds a run with every kind of published state the
// strategies observe: a sample set, a clustering, and a phase name.
func contractRun(t *testing.T, phase string, exec *par.Runner) *world.Run {
	t.Helper()
	const n, m = 16, 64
	in := prefgen.DiameterClusters(xrand.New(0xAD), n, m, 4, 4)
	w := world.New(in.Truth)
	rc := world.NewRunOn(w, exec)
	rc.Pub.Phase = phase
	rc.Pub.SetSample([]int{1, 5, 17, 33, 60})
	rc.Pub.Clusters = [][]int{{0, 1, 2, 3}, {4, 5, 6, 7, 8}}
	rc.Pub.TargetDiameter = 4
	return rc
}

// reportMatrix collects behavior b's reports for every (player, object)
// cell under the given executor, asking through the per-object path.
func reportMatrix(rc *world.Run, b world.Behavior, exec *par.Runner) [][]bool {
	n, m := rc.N(), rc.M()
	out := make([][]bool, n)
	exec.For(n, func(p int) {
		row := make([]bool, m)
		for o := 0; o < m; o++ {
			row[o] = b.Report(rc, p, o)
		}
		out[p] = row
	})
	return out
}

// TestBehaviorDeterminismContract asserts the documented contract for every
// exported behavior: identical answers when asked twice, when asked through
// the word- and vector-level report paths, and under every schedule of the
// parallel matrix (serial, fixed-width, full fan-out) — all against fixed
// published state, which is the only state a behavior may read.
func TestBehaviorDeterminismContract(t *testing.T) {
	const n = 16
	scheds := []struct {
		name string
		exec *par.Runner
	}{
		{"serial", par.Serial()},
		{"fixed4", par.Fixed(4)},
		{"parallel", par.Parallel()},
	}
	for _, phase := range []string{"sample", "smallradius", "workshare"} {
		for name, b := range contractBehaviors(n) {
			t.Run(fmt.Sprintf("%s/%s", name, phase), func(t *testing.T) {
				var ref [][]bool
				for _, sched := range scheds {
					rc := contractRun(t, phase, sched.exec)
					// Install the behavior so the Run paths consult it.
					for p := 0; p < n; p++ {
						rc.SetBehavior(p, b)
					}
					first := reportMatrix(rc, b, sched.exec)
					second := reportMatrix(rc, b, sched.exec)
					for p := range first {
						for o := range first[p] {
							if first[p][o] != second[p][o] {
								t.Fatalf("%s flip-flopped at (%d,%d) under %s", name, p, o, sched.name)
							}
						}
					}
					// The bulk report paths must agree with the per-object
					// path: honest players ride ProbeWord (ReportVector
					// through a compiled list, and ReportWord),
					// dishonest ones are asked per object — both must
					// reproduce the matrix.
					for p := 0; p < n; p++ {
						objs := []int{0, 3, 17, 40, 63}
						vec := rc.ReportVector(p, bitvec.CompileExtraction(objs, rc.M()))
						for j, o := range objs {
							if vec.Get(j) != first[p][o] {
								t.Fatalf("%s: ReportVector(%d) disagrees with Report at object %d under %s",
									name, p, o, sched.name)
							}
						}
						word := rc.ReportWord(p, 0, 0xFF)
						for bit := 0; bit < 8; bit++ {
							if (word>>uint(bit))&1 == 1 != first[p][bit] {
								t.Fatalf("%s: ReportWord(%d) disagrees with Report at object %d under %s",
									name, p, bit, sched.name)
							}
						}
					}
					if ref == nil {
						ref = first
						continue
					}
					for p := range ref {
						for o := range ref[p] {
							if ref[p][o] != first[p][o] {
								t.Fatalf("%s answers at (%d,%d) depend on the schedule (%s differs from serial)",
									name, p, o, sched.name)
							}
						}
					}
				}
			})
		}
	}
}

// TestBehaviorConcurrentConsistency hammers each behavior's Report for the
// same cells from many goroutines at once (run under -race): concurrent
// asks must agree with the serial answer — the schedule-independence half
// of the contract that a future stateful strategy would break first.
func TestBehaviorConcurrentConsistency(t *testing.T) {
	const n = 16
	for name, b := range contractBehaviors(n) {
		t.Run(name, func(t *testing.T) {
			rc := contractRun(t, "workshare", par.Fixed(8))
			for p := 0; p < n; p++ {
				rc.SetBehavior(p, b)
			}
			ref := reportMatrix(rc, b, par.Serial())
			var wg sync.WaitGroup
			errs := make(chan string, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for rep := 0; rep < 4; rep++ {
						for p := 0; p < n; p++ {
							for _, o := range []int{g, 8 + g, 56 + g} {
								if b.Report(rc, p, o) != ref[p][o] {
									select {
									case errs <- fmt.Sprintf("(%d,%d)", p, o):
									default:
									}
								}
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			if cell, bad := <-errs; bad {
				t.Fatalf("%s gave a schedule-dependent answer at %s", name, cell)
			}
		})
	}
}

// TestFlipflopperFlipFlops pins the one documented contract violator: the
// strategy exists to exercise the board's first-write-wins defense, so it
// must actually flip-flop — if it ever stops, the board test loses its
// adversary.
func TestFlipflopperFlipFlops(t *testing.T) {
	rc := contractRun(t, "workshare", par.Serial())
	f := NewFlipflopper()
	first := f.Report(rc, 3, 7)
	second := f.Report(rc, 3, 7)
	if first == second {
		t.Fatal("Flipflopper answered consistently; the board defense test needs it to alternate")
	}
	if !first || second {
		t.Fatalf("Flipflopper must alternate 1,0,1,…; got %v then %v", first, second)
	}
}
