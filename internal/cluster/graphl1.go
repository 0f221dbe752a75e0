// L1 neighbor discovery for the multi-valued (§8 ratings) protocol. The
// rating substrate publishes bit-sliced rows (bitvec.Planes) instead of
// binary vectors, and neighbors are pairs within an L1 — not Hamming —
// threshold, so it cannot ride IndexSpec (whose LSH banding hashes Hamming
// lanes). What it shares is everything but the distance: the pair sweep
// with its pivot stage (sweepPairs), which decides every pair once, and
// the emission path that lets the same edge stream fill either the dense
// BitGraph or the sparse CSRGraph.
package cluster

import (
	"fmt"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
)

// BuildGraphL1On builds the neighbor graph over bit-sliced rating rows:
// players p and q are adjacent iff the L1 distance of their rows is at most
// threshold. It is sweepPairs with the L1 metric, so the graph is a pure
// function of (rows, threshold, rep) under every schedule (exec nil means
// parallel).
//
// Row shapes are checked once, up front, so a malformed row panics on the
// caller's goroutine naming the row. The pivot stage then takes the full
// L1 distance (bitvec.Planes.L1) from every player to each of at most
// maxPivots pivots, and its bounds decide most pairs from those: on the
// rating protocol's planted inputs, every pair. Only the pairs no bound
// settles run bitvec.Planes.L1Within, which stops at the first 64-value
// word whose running total passes the threshold.
func BuildGraphL1On(exec *par.Runner, rows []bitvec.Planes, threshold int, rep GraphRep) Graph {
	for p, row := range rows {
		if row.Len() != rows[0].Len() || row.Bits() != rows[0].Bits() {
			panic(fmt.Sprintf("cluster: row %d has shape %d×%d, want %d×%d",
				p, row.Len(), row.Bits(), rows[0].Len(), rows[0].Bits()))
		}
	}
	l1 := func(p, q int) int { return rows[p].L1(rows[q]) }
	return sweepPairs(exec, len(rows), threshold, rep, l1, func(p, q int) bool {
		return rows[p].L1Within(rows[q], threshold)
	})
}
