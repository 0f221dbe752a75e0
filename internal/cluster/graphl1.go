// L1 neighbor discovery for the multi-valued (§8 ratings) protocol. The
// rating substrate publishes bit-sliced rows (bitvec.Planes) instead of
// binary vectors, and neighbors are pairs within an L1 — not Hamming —
// threshold, so it cannot ride NeighborIndex (whose LSH banding hashes
// Hamming lanes). What it can share is everything downstream of the
// distance test: the block-pair sweep that computes every pair once, and
// the graphSink seam that lets the same edge stream fill either the dense
// BitGraph or the sparse CSRGraph.
package cluster

import (
	"fmt"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
)

// BuildGraphL1On builds the neighbor graph over bit-sliced rating rows:
// players p and q are adjacent iff the L1 distance of their rows is at most
// threshold. The sweep is block-partitioned over the executor (nil means
// parallel) exactly like the Hamming sweep — each task owns one block pair
// and computes each distance once — and emits through per-worker edge
// buffers into the sink for the chosen representation. The graph is a pure
// function of (rows, threshold, rep) under every schedule.
//
// Row shapes are checked once, up front, so a malformed row panics on the
// caller's goroutine naming the row. Each pair then runs
// bitvec.Planes.L1Within, which stops at the first 64-value word whose
// running total passes the threshold: most pairs lie in different
// clusters, far above it, and cost one word instead of the whole row.
//
// This replaces the multival engine's private adjacency build, which
// computed every distance twice (a full row scan per player) and
// materialized a [][]int slice-of-slices graph.
func BuildGraphL1On(exec *par.Runner, rows []bitvec.Planes, threshold int, rep GraphRep) Graph {
	n := len(rows)
	for p, row := range rows {
		if row.Len() != rows[0].Len() || row.Bits() != rows[0].Bits() {
			panic(fmt.Sprintf("cluster: row %d has shape %d×%d, want %d×%d",
				p, row.Len(), row.Bits(), rows[0].Len(), rows[0].Bits()))
		}
	}
	sink := newGraphSink(n, rep)
	if n < 2 {
		return sink.finish(exec)
	}
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
				if rows[p].L1Within(rows[q], threshold) {
					buf = append(buf, [2]int32{int32(p), int32(q)})
					if len(buf) >= sinkFlushAt {
						sink.flush(buf)
						buf = buf[:0]
					}
				}
			}
		}
		bufs[wk] = buf
	})
	for _, buf := range bufs {
		sink.flush(buf)
	}
	return sink.finish(exec)
}
