package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

// outlierWorld plants maxPivots clusters of size players and inserts k
// outliers right after player 0, in both metrics: 192-bit vectors of
// diameter 4, swept at Hamming threshold 8, and rating rows within L1 6,
// swept at L1 threshold 12. The outliers sit about three thresholds from
// player 0, in one shared direction, so they lie within the threshold of
// one another and of nobody else. The clusters lie far apart, so
// farthest-first spends every pivot on a cluster and the cap leaves
// exactly the outliers uncovered, in bucket 0 with a radius above the
// threshold: the shape of the sweep-mix graphs that reach the cap with a
// few players uncovered.
func outlierWorld(size, k int) ([]bitvec.Vector, []bitvec.Planes) {
	rng := xrand.New(uint64(size*64 + k))
	z := prefgen.DiameterClusters(rng, maxPivots*size, 192, size, 4).Truth
	rows := plantedRatingRows(rng, maxPivots*size, 40, size, 3, 7)
	shift := rng.Sample(192, 24)
	moved := rows[0].Clone()
	for o, left := 0, 36; left > 0; o++ {
		// Move value o toward the far end of the 0..7 scale.
		v := moved.Get(o)
		d := min(max(v, 7-v), left)
		if v < 4 {
			moved.Set(o, v+d)
		} else {
			moved.Set(o, v-d)
		}
		left -= d
	}
	oz := make([]bitvec.Vector, k)
	orows := make([]bitvec.Planes, k)
	for i := range k {
		oz[i] = z[0].Clone()
		for _, b := range shift {
			oz[i].Flip(b)
		}
		oz[i].Flip(rng.Intn(192))
		orows[i] = moved.Clone()
		o := rng.Intn(40)
		if v := orows[i].Get(o); v < 7 {
			orows[i].Set(o, v+1)
		} else {
			orows[i].Set(o, v-1)
		}
	}
	return slices.Concat(z[:1], oz, z[1:]), slices.Concat(rows[:1], orows, rows[1:])
}

// TestPivotStagePrunes pins that the pivot bounds, not the exact test,
// decide the pairs of planted inputs. On clusters far apart relative to
// the threshold, the kept bucket pairs must hold at most 20% of the pairs
// and within must run for at most 10% of them. With outliers past the
// pivot cap (outlierWorld), within may also run for every pair of an
// uncovered player, but for no more than 10% of the others. A stage that
// switched itself off would run within for all of them and still build
// the right graph, so TestGraphBuildersAgree alone cannot see it.
func TestPivotStagePrunes(t *testing.T) {
	const n = 1024
	in := prefgen.DiameterClusters(xrand.New(n), n, 1024, n/8, 8)
	rows := plantedRatingRows(xrand.New(2048), n, 620, n/8, 16, 5)
	const size, outliers = 64, 13
	oz, orows := outlierWorld(size, outliers)
	for _, c := range []struct {
		name      string
		n         int
		threshold int
		dist      func(p, q int) int
		uncovered int
		ends      int
	}{
		// Planted clusters of n/8 players are cliques at these thresholds.
		{"hamming", n, 16, func(p, q int) int { return in.Truth[p].Hamming(in.Truth[q]) }, 0, n * (n/8 - 1)},
		{"l1", n, 76, func(p, q int) int { return rows[p].L1(rows[q]) }, 0, n * (n/8 - 1)},
		// So are outlierWorld's clusters, and its outliers among themselves.
		{"hamming+outliers", len(oz), 8, func(p, q int) int { return oz[p].Hamming(oz[q]) }, outliers,
			maxPivots*size*(size-1) + outliers*(outliers-1)},
		{"l1+outliers", len(orows), 12, func(p, q int) int { return orows[p].L1(orows[q]) }, outliers,
			maxPivots*size*(size-1) + outliers*(outliers-1)},
	} {
		pairs := c.n * (c.n - 1) / 2
		var ran atomic.Int64
		g := sweepPairs(par.Fixed(3), c.n, c.threshold, RepSparse, c.dist, func(p, q int) bool {
			ran.Add(1)
			return c.dist(p, q) <= c.threshold
		})
		free := c.uncovered * c.n
		if got := ran.Load(); got > int64(free+(pairs-free)/10) {
			t.Fatalf("%s: within ran for %d of %d pairs, want at most %d·n plus 10%% of the rest", c.name, got, pairs, c.uncovered)
		}
		ends := 0
		for p := 0; p < c.n; p++ {
			ends += g.Degree(p)
		}
		if ends != c.ends {
			t.Fatalf("%s: %d edge ends, want %d", c.name, ends, c.ends)
		}
		// Only the outliers lie beyond the threshold of their pivot, and
		// the bucket skip leaves only the clusters' own pairs to look at.
		ps := choosePivots(nil, c.n, c.threshold, c.dist)
		far := 0
		for k := range ps.radius {
			for i := ps.start[k]; i < ps.start[k+1]; i++ {
				if ps.dist[k][i] > c.threshold {
					far++
				}
			}
		}
		if far != c.uncovered {
			t.Fatalf("%s: %d players lie beyond the threshold of their pivot, want %d", c.name, far, c.uncovered)
		}
		looked := 0
		for _, tl := range ps.tiles(c.threshold) {
			if tl.iLo == tl.jLo {
				looked += (tl.iHi - tl.iLo) * (tl.iHi - tl.iLo - 1) / 2
			} else {
				looked += (tl.iHi - tl.iLo) * (tl.jHi - tl.jLo)
			}
		}
		if looked*5 > pairs {
			t.Fatalf("%s: the kept bucket pairs hold %d of %d pairs, want at most 20%%", c.name, looked, pairs)
		}
	}
}

// TestPivotBucketsCoverEveryPlayer checks choosePivots' bookkeeping on
// points of a line: order is a permutation grouped by bucket and by id
// within one, every player sits in the bucket of its nearest pivot (the
// earlier one on a tie) and within that bucket's radius, every radius is
// within the threshold, and the distance tables match the metric.
func TestPivotBucketsCoverEveryPlayer(t *testing.T) {
	pos := make([]int, 300)
	for p := range pos {
		pos[p] = (p * 113) % 300
	}
	_, rows := lineWorld(pos)
	dist := func(p, q int) int { return rows[p].L1(rows[q]) }
	const threshold = 25
	ps := choosePivots(par.Fixed(3), len(rows), threshold, dist)
	k := len(ps.radius)
	if ps.start[0] != 0 || ps.start[k] != len(rows) {
		t.Fatalf("bucket starts %v do not span [0, %d)", ps.start, len(rows))
	}
	seen := bitvec.New(len(rows))
	for c := range k {
		if ps.radius[c] > threshold {
			t.Fatalf("bucket %d has radius %d > threshold %d", c, ps.radius[c], threshold)
		}
		for i := ps.start[c]; i < ps.start[c+1]; i++ {
			p := ps.order[i]
			if seen.Get(p) {
				t.Fatalf("player %d appears twice in the order", p)
			}
			seen.Set(p, true)
			if i > ps.start[c] && ps.order[i-1] > p {
				t.Fatalf("bucket %d is not in id order at position %d", c, i)
			}
			if ps.dist[c][i] > ps.radius[c] {
				t.Fatalf("player %d is %d from pivot %d, past its radius %d", p, ps.dist[c][i], c, ps.radius[c])
			}
			for e := range k {
				if ps.dist[e][i] < ps.dist[c][i] || (e < c && ps.dist[e][i] == ps.dist[c][i]) {
					t.Fatalf("player %d belongs to pivot %d's bucket, not %d's", p, e, c)
				}
			}
		}
		// The pivot sits in its own bucket at distance 0; the table's
		// column c must be the metric from it.
		pv := -1
		for i := ps.start[c]; i < ps.start[c+1] && pv < 0; i++ {
			if ps.dist[c][i] == 0 {
				pv = ps.order[i]
			}
		}
		if pv < 0 {
			t.Fatalf("bucket %d holds no player at distance 0 from its pivot", c)
		}
		for i, p := range ps.order {
			if ps.dist[c][i] != dist(pv, p) {
				t.Fatalf("dist[%d][%d] = %d, want %d", c, i, ps.dist[c][i], dist(pv, p))
			}
		}
	}
	if seen.Count() != len(rows) {
		t.Fatalf("the order holds %d of %d players", seen.Count(), len(rows))
	}
}

// recordSink is a graphSink that keeps the raw edge stream, so a test can
// see a pair emitted twice (the real sinks deduplicate).
type recordSink struct {
	mu    sync.Mutex
	edges [][2]int32
}

func (s *recordSink) flush(edges [][2]int32) {
	s.mu.Lock()
	s.edges = append(s.edges, edges...)
	s.mu.Unlock()
}

func (s *recordSink) finish(*par.Runner) Graph { return nil }

// TestPivotSweepDecisions runs the pivot stage's tiles one by one into a
// recording sink and checks, pair by pair, what it decided: every edge is
// emitted exactly once, the edges are exactly the pairs within the
// threshold, and within ran for exactly the pairs in a kept bucket pair
// that neither pivot's bounds settle, by the two-sided rule. The expected
// counts come from the metric and the pivots' ids, not from the stage's
// tables, so a bound with a side missing, a < for a ≤, or a bucket pair
// skipped or kept wrongly shows up as a count off even where the graph
// comes out right. The worlds past the pivot cap (seventeen, outliers,
// uniform) are where pivot a's second sign decides pairs. The pivots
// themselves must follow the stop rule.
func TestPivotSweepDecisions(t *testing.T) {
	type world struct {
		name      string
		n         int
		threshold int
		dist      func(p, q int) int
	}
	var worlds []world
	for _, w := range lineWorlds() {
		z, rows := lineWorld(w.pos)
		worlds = append(worlds,
			world{"hamming " + w.name, len(z), w.threshold, func(p, q int) int { return z[p].Hamming(z[q]) }},
			world{"l1 " + w.name, len(rows), w.threshold, func(p, q int) int { return rows[p].L1(rows[q]) }})
	}
	planted := plantedRatingRows(xrand.New(7), 300, 40, 30, 3, 7)
	worlds = append(worlds, world{"l1 planted", 300, 12, func(p, q int) int { return planted[p].L1(planted[q]) }})
	for _, k := range []int{1, 2, 13} {
		z, rows := outlierWorld(8, k)
		worlds = append(worlds,
			world{fmt.Sprintf("hamming outliers=%d", k), len(z), 8, func(p, q int) int { return z[p].Hamming(z[q]) }},
			world{fmt.Sprintf("l1 outliers=%d", k), len(rows), 12, func(p, q int) int { return rows[p].L1(rows[q]) }})
	}
	uniform := prefgen.Uniform(xrand.New(130), 130, 96).Truth
	worlds = append(worlds, world{"hamming uniform", 130, 40, func(p, q int) int { return uniform[p].Hamming(uniform[q]) }})

	for _, w := range worlds {
		ps := choosePivots(par.Fixed(3), w.n, w.threshold, w.dist)
		// Each player's pivot, by id: the bucket member at distance 0.
		k := len(ps.radius)
		bucket := make([]int, w.n)
		pivot := make([]int, k)
		for c := range k {
			pivot[c] = -1
			for i := ps.start[c]; i < ps.start[c+1]; i++ {
				bucket[ps.order[i]] = c
				if pivot[c] < 0 && ps.dist[c][i] == 0 {
					pivot[c] = ps.order[i]
				}
			}
		}
		radius := make([]int, k)
		for p, c := range bucket {
			radius[c] = max(radius[c], w.dist(pivot[c], p))
		}
		// The stop rule: each pivot lay beyond the threshold of every
		// earlier one when it was picked, and below the cap the pivots
		// cover every player.
		for c := range k {
			for e := range c {
				if d := w.dist(pivot[e], pivot[c]); d <= w.threshold {
					t.Fatalf("%s: pivot %d is %d from pivot %d, within the threshold", w.name, c, d, e)
				}
			}
			if k < maxPivots && radius[c] > w.threshold {
				t.Fatalf("%s: %d pivots, below the cap, leave bucket %d with radius %d", w.name, k, c, radius[c])
			}
		}
		wantEdges, wantRan := map[[2]int32]bool{}, 0
		for p := 0; p < w.n; p++ {
			for q := p + 1; q < w.n; q++ {
				if w.dist(p, q) <= w.threshold {
					wantEdges[[2]int32{int32(p), int32(q)}] = true
				}
				a, b := bucket[p], bucket[q]
				if w.dist(pivot[a], pivot[b])-radius[a]-radius[b] > w.threshold {
					continue
				}
				decided := false
				for _, c := range []int{pivot[a], pivot[b]} {
					dp, dq := w.dist(c, p), w.dist(c, q)
					decided = decided || dp+dq <= w.threshold || dp-dq > w.threshold || dq-dp > w.threshold
				}
				if !decided {
					wantRan++
				}
			}
		}

		sink := &recordSink{}
		var ran atomic.Int64
		within := func(p, q int) bool {
			ran.Add(1)
			return w.dist(p, q) <= w.threshold
		}
		tiles := ps.tiles(w.threshold)
		bufs := make([][][2]int32, len(tiles))
		par.Fixed(3).For(len(tiles), func(ti int) {
			bufs[ti] = ps.sweepTile(tiles[ti], w.threshold, within, sink, nil)
		})
		for _, buf := range bufs {
			sink.flush(buf)
		}
		got := map[[2]int32]bool{}
		for _, e := range sink.edges {
			e = [2]int32{min(e[0], e[1]), max(e[0], e[1])}
			if got[e] || e[0] == e[1] {
				t.Fatalf("%s: edge %v emitted twice or as a loop", w.name, e)
			}
			got[e] = true
		}
		if len(got) != len(wantEdges) {
			t.Fatalf("%s: %d edges, want %d", w.name, len(got), len(wantEdges))
		}
		for e := range wantEdges {
			if !got[e] {
				t.Fatalf("%s: edge %v missing", w.name, e)
			}
		}
		if int(ran.Load()) != wantRan {
			t.Fatalf("%s: within ran for %d pairs, want %d", w.name, ran.Load(), wantRan)
		}
	}
}
