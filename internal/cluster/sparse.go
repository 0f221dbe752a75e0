// Sparse graph representation (DESIGN.md §16). The dense BitGraph spends
// n² bits regardless of how many edges exist — 125 GB at n = 10⁶ — while
// the paper-regime graphs carry only Θ(n·size) edges (every player's
// neighborhood is essentially its cluster, Lemma 8). CSRGraph stores
// exactly those edges in compressed-sparse-row form: one offsets slice and
// one flat slice of sorted per-vertex neighbor lists. Construction goes
// through graphSink, the small seam all three edge producers (the exact
// Hamming sweep, the L1 sweep and the LSH banding index) write through by
// one emission path (emitEdge, drainEdges), so any producer can fill
// either representation.
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
// the BitGraph's n² bits; neighbor iteration is a contiguous scan. Rows
// are sorted and deduplicated at build time, so iteration order — and
// therefore the clustering Build produces — is a pure function of the
// edge set, byte-identical to the BitGraph over the same edges.
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
// negligible next to the graph itself. Unbounded per-worker lists, set
// into the bitset at finish, cost measurably more peak memory on the
// exact dense sweep (DESIGN.md §16).
const sinkFlushAt = 1 << 14

// emitEdge appends the edge {p, q} to a producer's per-worker buffer and
// flushes the buffer into the sink once it holds sinkFlushAt edges — the
// one flush site of every producer. It returns the buffer to keep using.
func emitEdge(sink graphSink, buf [][2]int32, p, q int) [][2]int32 {
	buf = append(buf, [2]int32{int32(p), int32(q)})
	if len(buf) >= sinkFlushAt {
		sink.flush(buf)
		buf = buf[:0]
	}
	return buf
}

// drainEdges flushes what the per-worker buffers still hold, after the
// producer's loop has returned, and finishes the graph on exec.
func drainEdges(exec *par.Runner, sink graphSink, bufs [][][2]int32) Graph {
	for _, buf := range bufs {
		sink.flush(buf)
	}
	return sink.finish(exec)
}
