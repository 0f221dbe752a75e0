package multival

import (
	"fmt"
	"sync"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/xrand"
)

// contractBehaviors enumerates every rating Behavior this package exports,
// mirroring the adversary package's determinism-contract meta-test
// (internal/adversary/contract_test.go): now that multival is
// schedule-gated, protocols may ask for the same report through the
// per-object path (Report), the bulk gather path (ReportValues), or the
// word-level path (ReportPlaneWords), possibly from concurrent phase
// goroutines — and every answer must agree. Any NEW stateful rater added
// to this package must either appear here and hold the contract, or be
// documented as an exception the way adversary.Flipflopper is.
func contractBehaviors() map[string]Behavior {
	return map[string]Behavior{
		"RandomRater": RandomRater{Seed: 0xC0},
		"Exaggerator": Exaggerator{},
		"Shifter":     Shifter{Delta: -3},
		"Inverter":    Inverter{},
		"Honest":      Honest{},
	}
}

// contractWorld builds a small rating world with a non-trivial scale so
// clamping and plane widths are exercised.
func contractWorld(t *testing.T) *World {
	t.Helper()
	truth, _ := Generate(xrand.New(0xAD), 16, 100, 4, 8, 6)
	return NewWorld(truth, 6)
}

// reportMatrix collects behavior b's reports for every (player, object)
// cell under the given executor, through the per-object path.
func reportMatrix(w *World, b Behavior, exec *par.Runner) [][]int {
	n, m := w.N(), w.M()
	out := make([][]int, n)
	exec.For(n, func(p int) {
		row := make([]int, m)
		for o := 0; o < m; o++ {
			row[o] = b.Report(w, p, o)
		}
		out[p] = row
	})
	return out
}

// TestRaterDeterminismContract asserts the documented contract for every
// exported rating behavior across the serial/fixed-width/parallel schedule
// matrix: identical answers when asked twice, identical answers under
// every schedule, and agreement between the per-object, bulk-gather, and
// word-level report paths.
func TestRaterDeterminismContract(t *testing.T) {
	scheds := []struct {
		name string
		exec *par.Runner
	}{
		{"serial", par.Serial()},
		{"fixed4", par.Fixed(4)},
		{"parallel", par.Parallel()},
	}
	for name, b := range contractBehaviors() {
		t.Run(name, func(t *testing.T) {
			var ref [][]int
			for _, sched := range scheds {
				w := contractWorld(t)
				for p := 0; p < w.N(); p++ {
					w.SetBehavior(p, b)
				}
				first := reportMatrix(w, b, sched.exec)
				second := reportMatrix(w, b, sched.exec)
				for p := range first {
					for o := range first[p] {
						if first[p][o] != second[p][o] {
							t.Fatalf("%s flip-flopped at (%d,%d) under %s", name, p, o, sched.name)
						}
					}
				}
				// The bulk report paths must agree with the per-object path
				// (honest players ride the probe memo; dishonest ones are
				// asked per object — both must reproduce the matrix, with
				// out-of-scale reports clamped identically).
				for p := 0; p < w.N(); p++ {
					objs := []int{0, 3, 17, 40, 63, 64, 99}
					vals := w.ReportValues(p, bitvec.CompileExtraction(objs, w.M()))
					for j, o := range objs {
						if vals.Get(j) != clampRating(first[p][o], w.Scale()) {
							t.Fatalf("%s: ReportValues(%d) disagrees with Report at object %d under %s",
								name, p, o, sched.name)
						}
					}
					dst := make([]uint64, w.Bits())
					w.ReportPlaneWords(p, 1, 0x3FF, dst) // objects 64..73
					for bit := 0; bit < 10; bit++ {
						v := 0
						for l, wv := range dst {
							v |= int(wv>>uint(bit)&1) << l
						}
						if v != clampRating(first[p][64+bit], w.Scale()) {
							t.Fatalf("%s: ReportPlaneWords(%d) disagrees with Report at object %d under %s",
								name, p, 64+bit, sched.name)
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

// TestRaterConcurrentConsistency hammers each behavior's Report for the
// same cells from many goroutines at once (run under -race): concurrent
// asks must agree with the serial answer.
func TestRaterConcurrentConsistency(t *testing.T) {
	for name, b := range contractBehaviors() {
		t.Run(name, func(t *testing.T) {
			w := contractWorld(t)
			for p := 0; p < w.N(); p++ {
				w.SetBehavior(p, b)
			}
			ref := reportMatrix(w, b, par.Serial())
			var wg sync.WaitGroup
			errs := make(chan string, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for rep := 0; rep < 4; rep++ {
						for p := 0; p < w.N(); p++ {
							for _, o := range []int{g, 32 + g, 90 + g} {
								if b.Report(w, p, o) != ref[p][o] {
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
