// Sparse graph representation (DESIGN.md §16). The dense BitGraph spends
// n² bits regardless of how many edges exist — 125 GB at n = 10⁶ — while
// the paper-regime graphs carry only Θ(n·size) edges (every player's
// neighborhood is essentially its cluster, Lemma 8). CSRGraph stores
// exactly those edges in compressed-sparse-row form: one offsets slice and
// one flat slice of sorted per-vertex neighbor lists. Construction goes
// through graphSink, the small seam both edge producers (the exact
// block-pair sweep and the LSH banding index) write through, so either
// producer can fill either representation.
package cluster

import (
	"slices"
	"sync"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
)

// CSRGraph is the sparse neighbor-graph representation: per-vertex
// neighbor lists sorted by id, compacted into one offsets slice (off, n+1
// entries) and one targets slice (tgt). Memory is Θ(n + edges) instead of
// the BitGraph's n² bits; neighbor iteration is a contiguous scan, and
// Adjacent a binary search of the row. Rows are sorted and deduplicated at
// build time, so iteration order — and therefore the clustering Build
// produces — is a pure function of the edge set, byte-identical to the
// BitGraph over the same edges.
type CSRGraph struct {
	n   int
	off []int64
	tgt []int32
}

// N returns the number of players in the graph.
func (g *CSRGraph) N() int { return g.n }

// Degree returns the degree of player p.
func (g *CSRGraph) Degree(p int) int { return int(g.off[p+1] - g.off[p]) }

// row returns p's sorted neighbor list (a view into tgt).
func (g *CSRGraph) row(p int) []int32 { return g.tgt[g.off[p]:g.off[p+1]] }

// Adjacent reports whether p and q share an edge, by binary search of p's
// sorted row.
func (g *CSRGraph) Adjacent(p, q int) bool {
	_, found := slices.BinarySearch(g.row(p), int32(q))
	return found
}

// Neighbors returns the neighbor ids of player p (nil when isolated,
// matching the dense implementation).
func (g *CSRGraph) Neighbors(p int) []int {
	row := g.row(p)
	if len(row) == 0 {
		return nil
	}
	out := make([]int, len(row))
	for i, q := range row {
		out[i] = int(q)
	}
	return out
}

// VisitNeighbors calls fn on p's neighbors in increasing id order,
// stopping early when fn returns false.
func (g *CSRGraph) VisitNeighbors(p int, fn func(q int) bool) {
	for _, q := range g.row(p) {
		if !fn(int(q)) {
			return
		}
	}
}

// LiveDegree counts p's neighbors still in the alive set — a contiguous
// row scan with one bit test per neighbor, allocation-free.
func (g *CSRGraph) LiveDegree(p int, alive bitvec.Vector) int {
	c := 0
	for _, q := range g.row(p) {
		if alive.Get(int(q)) {
			c++
		}
	}
	return c
}

// AppendLiveNeighbors appends p's surviving neighbors to dst in increasing
// id order (rows are sorted) and returns the extended slice.
func (g *CSRGraph) AppendLiveNeighbors(dst []int, p int, alive bitvec.Vector) []int {
	for _, q := range g.row(p) {
		if alive.Get(int(q)) {
			dst = append(dst, int(q))
		}
	}
	return dst
}

// graphSink is the construction seam between edge producers and graph
// representations: producers discover pairs p < q within threshold (in
// whatever order their schedule yields) and flush them in batches; finish
// returns the completed graph. Both implementations treat the edge stream
// as an unordered multiset — duplicates and flush order cannot affect the
// result — which is what lets the producers keep their scheduling freedom
// (DESIGN.md §9) without perturbing the graph.
type graphSink interface {
	// flush ingests a batch of undirected edges {e[0], e[1]}, e[0] ≠ e[1].
	// Safe for concurrent callers; the batch is copied before returning.
	flush(edges [][2]int32)
	// finish completes construction on the given executor (nil means
	// parallel) and returns the graph. Call once, after every flush has
	// returned. The finished graph must be a pure function of the flushed
	// edge multiset — never of the executor's schedule.
	finish(exec *par.Runner) Graph
}

// newGraphSink picks the sink for the resolved representation: the dense
// bitset below the auto cutoff, CSR at or above it (or as forced by rep).
func newGraphSink(n int, rep GraphRep) graphSink {
	if rep.pick(n) == RepSparse {
		return newCSRBuilder(n)
	}
	return &bitSink{g: newBitGraph(n)}
}

// bitSink adapts the dense BitGraph to the sink seam: batches set both
// directions of each edge under a mutex. Set bits are idempotent, so
// duplicate edges and flush order are harmless.
type bitSink struct {
	mu sync.Mutex
	g  *BitGraph
}

func (s *bitSink) flush(edges [][2]int32) {
	s.mu.Lock()
	for _, e := range edges {
		s.g.adj[e[0]].Set(int(e[1]), true)
		s.g.adj[e[1]].Set(int(e[0]), true)
	}
	s.mu.Unlock()
}

func (s *bitSink) finish(*par.Runner) Graph { return s.g }

// csrBuilder accumulates the raw edge stream and compacts it into a
// CSRGraph at finish: count per-vertex degrees (duplicates included),
// prefix-sum into offsets, scatter each edge in both directions, then sort
// and deduplicate every row and gather the compacted rows into fresh,
// exactly-sized offsets and targets. Sorting makes the result independent
// of emission order; deduplication makes it independent of multiplicity —
// together the CSR rows are exactly the BitGraph's bit rows read in id
// order.
type csrBuilder struct {
	mu    sync.Mutex
	n     int
	edges [][2]int32
}

func newCSRBuilder(n int) *csrBuilder { return &csrBuilder{n: n} }

func (b *csrBuilder) flush(edges [][2]int32) {
	b.mu.Lock()
	b.edges = append(b.edges, edges...)
	b.mu.Unlock()
}

func (b *csrBuilder) finish(exec *par.Runner) Graph { return b.buildOn(exec) }

// buildOn is the finish: after the serial scatter pass, the per-row sort +
// dedup — each row is a disjoint slice of the scattered targets, so rows
// are embarrassingly parallel — fans out on the executor, followed by a
// serial prefix sum of the compacted lengths and a parallel copy into a
// fresh, exactly-sized targets slice (rows cannot be compacted left in
// place concurrently: a row's destination overlaps its left neighbor's
// source). Sorting and deduplication make each row a pure function of its
// edge multiset, so the graph is byte-identical to the serial in-place
// reference finish under every schedule (TestCSRFinishMatchesSerial pins
// it).
func (b *csrBuilder) buildOn(exec *par.Runner) *CSRGraph {
	n := b.n
	off := make([]int64, n+1)
	for _, e := range b.edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for p := 0; p < n; p++ {
		off[p+1] += off[p]
	}
	raw := make([]int32, off[n])
	cur := make([]int64, n)
	copy(cur, off[:n])
	for _, e := range b.edges {
		raw[cur[e[0]]] = e[1]
		cur[e[0]]++
		raw[cur[e[1]]] = e[0]
		cur[e[1]]++
	}
	b.edges = nil // release the raw stream before the graph outlives us

	// Parallel per-row sort + in-place dedup, recording compacted lengths.
	newLen := make([]int64, n)
	exec.For(n, func(p int) {
		row := raw[off[p]:off[p+1]]
		slices.Sort(row)
		w := 0
		prev := int32(-1)
		for _, q := range row {
			if q != prev {
				row[w] = q
				w++
				prev = q
			}
		}
		newLen[p] = int64(w)
	})

	// Serial prefix sum of the compacted lengths, then a parallel gather
	// into the exactly-sized targets slice.
	newOff := make([]int64, n+1)
	for p := 0; p < n; p++ {
		newOff[p+1] = newOff[p] + newLen[p]
	}
	tgt := make([]int32, newOff[n])
	exec.For(n, func(p int) {
		copy(tgt[newOff[p]:newOff[p+1]], raw[off[p]:off[p]+newLen[p]])
	})
	return &CSRGraph{n: n, off: newOff, tgt: tgt}
}

// sinkFlushAt bounds producers' per-worker edge buffers: big enough to
// amortize the sink mutex, small enough to keep peak buffer memory
// negligible next to the graph itself.
const sinkFlushAt = 1 << 14

// buildCSROn is the exact all-pairs sweep emitting into a CSRGraph — the
// same block-pair partition as BuildGraphOn (see blockRows), but since CSR
// rows cannot be written word-disjointly in place, verified edges
// accumulate in per-worker buffers and flush into the builder in batches.
// The builder sorts and dedups at finish, so the schedule still cannot
// affect the result.
func buildCSROn(exec *par.Runner, z []bitvec.Vector, threshold int) *CSRGraph {
	n := len(z)
	b := newCSRBuilder(n)
	nb := (n + blockRows - 1) / blockRows
	type blockPair struct{ bi, bj int }
	tasks := make([]blockPair, 0, nb*(nb+1)/2)
	for bi := 0; bi < nb; bi++ {
		for bj := bi; bj < nb; bj++ {
			tasks = append(tasks, blockPair{bi, bj})
		}
	}
	bufs := make([][][2]int32, exec.Workers(len(tasks)))
	exec.ForWorker(len(tasks), func(wk, t int) {
		bi, bj := tasks[t].bi, tasks[t].bj
		pHi := min(n, (bi+1)*blockRows)
		qHi := min(n, (bj+1)*blockRows)
		buf := bufs[wk]
		for p := bi * blockRows; p < pHi; p++ {
			qLo := bj * blockRows
			if bi == bj {
				qLo = p + 1
			}
			for q := qLo; q < qHi; q++ {
				if z[p].Hamming(z[q]) <= threshold {
					buf = append(buf, [2]int32{int32(p), int32(q)})
					if len(buf) >= sinkFlushAt {
						b.flush(buf)
						buf = buf[:0]
					}
				}
			}
		}
		bufs[wk] = buf
	})
	for _, buf := range bufs {
		b.flush(buf)
	}
	return b.buildOn(exec)
}
