package collabscore_test

// BenchmarkRatings pins the §8 rating-protocol hot path before and after
// the PR 5 vectorization (DESIGN.md §12). The "bitplane" engine is the
// live internal/multival implementation: bit-sliced ratings, word-level L1,
// CAS probe memo with bulk charging, per-worker workshare arenas. The
// "intmatrix" engine re-implements, inside this benchmark, the pre-PR5
// data path — []int published rows, per-element L1 loops, a [][]bool probe
// memo, and a freshly allocated report slice per (cluster, object) in the
// median work-share — so `go test -bench Ratings -benchmem` reports the
// allocs/op and ns/op trajectory of the refactor on every run (the
// committed BENCH_PR5.json is its historical record). Both engines execute the same single-guess
// protocol (publish → neighbor graph → peel → median work-share) over the
// same planted instance.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"collabscore/internal/multival"
	"collabscore/internal/par"
	"collabscore/internal/xrand"
)

func BenchmarkRatings(b *testing.B) {
	const scale, budget = 5, 8
	for _, n := range []int{256, 1024} {
		d := n / 32
		truth, _ := multival.Generate(xrand.New(2010), n, n, n/budget, d, scale)
		rows := make([][]int, n)
		for p := range rows {
			rows[p] = truth[p].Ints()
		}

		b.Run(fmt.Sprintf("engine=bitplane/n=%d", n), func(b *testing.B) {
			w := multival.NewWorld(truth, scale)
			pr := multival.Scaled(n, budget)
			pr.MinD, pr.MaxD = d, d
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.ResetProbes()
				res := multival.Run(w, xrand.New(uint64(i)), pr)
				if len(res.Output) != n {
					b.Fatal("bad output")
				}
			}
		})

		b.Run(fmt.Sprintf("engine=intmatrix/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := legacyRatingsRun(rows, scale, budget, d, xrand.New(uint64(i)))
				if len(out) != n {
					b.Fatal("bad output")
				}
			}
		})
	}
}

// legacyRatingsRun is the pre-PR5 scalar engine, kept verbatim in spirit:
// the allocation pattern (per-player []int rows, per-object report slices,
// per-member output copies) is what the vectorized engine replaced.
func legacyRatingsRun(truth [][]int, scale, budget, d int, shared *xrand.Stream) [][]int {
	n := len(truth)
	m := len(truth[0])
	lnn := math.Log(float64(n))
	if lnn < 1 {
		lnn = 1
	}
	minSize := n/budget - n/(3*budget)
	if minSize < 1 {
		minSize = 1
	}
	probed := make([][]bool, n)
	probes := make([]int, n)
	for p := range probed {
		probed[p] = make([]bool, m)
	}
	probe := func(p, o int) int {
		if !probed[p][o] {
			probed[p][o] = true
			probes[p]++
		}
		return truth[p][o]
	}

	iterRng := shared.Split(0, uint64(d))
	rate := 0.5 * lnn * float64(scale) / float64(d)
	if rate > 1 {
		rate = 1
	}
	sample := iterRng.Split(0x5A).BernoulliSubset(m, rate)
	if len(sample) == 0 {
		sample = []int{0}
	}

	published := par.MapOn(nil, n, func(p int) []int {
		row := make([]int, len(sample))
		for j, o := range sample {
			row[j] = probe(p, o)
		}
		return row
	})

	threshold := int(4 * rate * float64(d))
	if threshold < 1 {
		threshold = 1
	}
	adj := par.MapOn(nil, n, func(p int) []int {
		var nb []int
		for q := 0; q < n; q++ {
			if q == p {
				continue
			}
			dist := 0
			for j := range published[p] {
				if published[p][j] > published[q][j] {
					dist += published[p][j] - published[q][j]
				} else {
					dist += published[q][j] - published[p][j]
				}
			}
			if dist <= threshold {
				nb = append(nb, q)
			}
		}
		return nb
	})
	clusters := legacyPeel(adj, n, minSize)

	red := int(1.5*lnn) + 1
	out := make([][]int, n)
	for p := range out {
		out[p] = make([]int, m)
	}
	for j, members := range clusters {
		clusterRng := iterRng.Split(0x5C, uint64(j))
		ratings := par.MapOn(nil, m, func(o int) int {
			rng := clusterRng.Split(uint64(o))
			reports := make([]int, 0, red)
			for i := 0; i < red; i++ {
				q := members[rng.Intn(len(members))]
				reports = append(reports, probe(q, o))
			}
			sort.Ints(reports)
			return reports[(len(reports)-1)/2]
		})
		for _, p := range members {
			copy(out[p], ratings)
		}
	}
	return out
}

// legacyPeel is the §6.5 greedy peeling over a plain adjacency list, as the
// scalar engine ran it.
func legacyPeel(adj [][]int, n, minSize int) [][]int {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	var clusters [][]int
	for {
		found := -1
		for p := 0; p < n; p++ {
			if !alive[p] {
				continue
			}
			deg := 0
			for _, q := range adj[p] {
				if alive[q] {
					deg++
				}
			}
			if deg >= minSize-1 {
				found = p
				break
			}
		}
		if found < 0 {
			break
		}
		members := []int{found}
		for _, q := range adj[found] {
			if alive[q] {
				members = append(members, q)
			}
		}
		for _, q := range members {
			alive[q] = false
		}
		clusters = append(clusters, members)
	}
	return clusters
}
