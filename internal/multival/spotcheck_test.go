package multival

import (
	"fmt"
	"math"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/core"
	"collabscore/internal/xrand"
)

// spotCheckOracle is the scalar spot check the word-level spotCheck
// replaced: it samples min(m, 8·⌊ln n⌋) objects with xrand.Stream.Sample
// and returns the candidate with the least total miss(ci, o) over them,
// ties to the lowest index; a lone candidate is returned without drawing.
func spotCheckOracle(rng *xrand.Stream, n, m, k int, miss func(ci, o int) int) int {
	if k == 1 {
		return 0
	}
	check := rng.Sample(m, min(m, 8*int(core.LnN(n))))
	best, bestMiss := 0, math.MaxInt
	for ci := 0; ci < k; ci++ {
		total := 0
		for _, o := range check {
			total += miss(ci, o)
		}
		if total < bestMiss {
			best, bestMiss = ci, total
		}
	}
	return best
}

// spotCandidates returns k candidate rows for player p of w: some are the
// player's truth with a few ratings moved, some are random rows, and some
// repeat an earlier candidate, so that ties occur.
func spotCandidates(w *World, p, k int, rng *xrand.Stream) []bitvec.Planes {
	m, scale := w.M(), w.Scale()
	col := make([]bitvec.Planes, k)
	for ci := range col {
		switch rng.Intn(3) {
		case 0:
			row := w.TruthRow(p)
			for range rng.Intn(2 * m / 3) {
				row[rng.Intn(m)] = rng.Intn(scale + 1)
			}
			col[ci] = bitvec.FromInts(row, scale)
		case 1:
			row := make([]int, m)
			for o := range row {
				row[o] = rng.Intn(scale + 1)
			}
			col[ci] = bitvec.FromInts(row, scale)
		default:
			if ci == 0 {
				col[ci] = bitvec.NewPlanes(m, w.Bits())
			} else {
				col[ci] = col[rng.Intn(ci)]
			}
		}
	}
	return col
}

// TestSpotCheckMatchesScalarOracle pins the word-level spot check against
// the scalar oracle on dense and lazy worlds, for 1, 2 and 5 candidates
// and for m both above and below 8·ln n (where every object is checked):
// for every player, the same choice and the same next coin, and after all
// players, every player's probe count.
func TestSpotCheckMatchesScalarOracle(t *testing.T) {
	const n, scale = 64, 5 // 8·⌊ln 64⌋ = 32 checked objects
	for _, m := range []int{200, 20} {
		for _, lazy := range []bool{false, true} {
			for _, k := range []int{1, 2, 5} {
				t.Run(fmt.Sprintf("m=%d/lazy=%v/k=%d", m, lazy, k), func(t *testing.T) {
					w, oracle := ratingWorldPair(lazy, n, m, scale)
					cands := xrand.New(uint64(m*10 + k))
					for p := 0; p < n; p++ {
						col := spotCandidates(w, p, k, cands)
						rng := xrand.New(uint64(p) + 77)
						oracleRng := rng.Clone()
						got := spotCheck(w, p, rng, col)
						want := spotCheckOracle(oracleRng, n, m, k, func(ci, o int) int {
							d := col[ci].Get(o) - oracle.Probe(p, o)
							return max(d, -d)
						})
						if got != want {
							t.Fatalf("player %d: spotCheck = %d, oracle %d", p, got, want)
						}
						if rng.Uint64() != oracleRng.Uint64() {
							t.Fatalf("player %d: next coin differs from the oracle's", p)
						}
					}
					for p := 0; p < n; p++ {
						if w.Probes(p) != oracle.Probes(p) {
							t.Fatalf("player %d charged %d, oracle %d", p, w.Probes(p), oracle.Probes(p))
						}
					}
				})
			}
		}
	}
}

// BenchmarkSpotCheck times one player's final spot check at n = m = 2048
// on a 0..5 scale (k = 3 planes) among 5 candidates, on dense truth, from
// a fresh memo row every n players.
func BenchmarkSpotCheck(b *testing.B) {
	const n, m, scale = 2048, 2048, 5
	w, _ := ratingWorldPair(false, n, m, scale)
	cands := xrand.New(3)
	cols := make([][]bitvec.Planes, 16)
	for i := range cols {
		cols[i] = spotCandidates(w, i, 5, cands)
	}
	p := 0
	for b.Loop() {
		if p == 0 {
			w.ResetProbes()
		}
		spotCheck(w, p, xrand.New(uint64(p)), cols[p%len(cols)])
		p = (p + 1) % n
	}
}
