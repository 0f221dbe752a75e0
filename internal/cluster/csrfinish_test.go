package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/xrand"
)

// testExecs is the schedule matrix for the executor-taking builders: the
// serial reference, a fixed width forcing real goroutine interleavings, and
// the parallel default.
func testExecs() map[string]*par.Runner {
	return map[string]*par.Runner{
		"serial":   par.Serial(),
		"fixed3":   par.Fixed(3),
		"parallel": par.Parallel(),
	}
}

// build is the serial reference finish the parallel buildOn is pinned
// against (TestCSRFinishMatchesSerial, BenchmarkCSRFinish): one pass sorts,
// dedups, and compacts rows left in place.
func (b *csrBuilder) build() *CSRGraph {
	n := b.n
	off := make([]int64, n+1)
	for _, e := range b.edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for p := 0; p < n; p++ {
		off[p+1] += off[p]
	}
	tgt := make([]int32, off[n])
	cur := make([]int64, n)
	copy(cur, off[:n])
	for _, e := range b.edges {
		tgt[cur[e[0]]] = e[1]
		cur[e[0]]++
		tgt[cur[e[1]]] = e[0]
		cur[e[1]]++
	}
	b.edges = nil // release the raw stream before the graph outlives us

	// Sort and deduplicate each row in place. The write cursor w never
	// passes the read position (compaction only shrinks rows), so the
	// compacted prefix of tgt can be rebuilt while the tail is still being
	// read.
	var w int64
	lo := int64(0)
	for p := 0; p < n; p++ {
		hi := off[p+1]
		row := tgt[lo:hi]
		slices.Sort(row)
		off[p] = w
		prev := int32(-1)
		for _, q := range row {
			if q != prev {
				tgt[w] = q
				w++
				prev = q
			}
		}
		lo = hi
	}
	off[n] = w
	if w <= int64(len(tgt))-int64(len(tgt))/8 {
		// Heavy duplication: reallocate to the compact size rather than
		// retaining the oversized backing array for the graph's lifetime.
		tgt = append(make([]int32, 0, w), tgt[:w]...)
	} else {
		tgt = tgt[:w]
	}
	return &CSRGraph{n: n, off: off, tgt: tgt}
}

// TestCSRFinishMatchesSerial: the parallel CSR row compaction yields the
// exact graph of the serial in-place finish for the same edge stream —
// duplicate edges included — under every schedule.
func TestCSRFinishMatchesSerial(t *testing.T) {
	rng := xrand.New(97)
	for _, n := range []int{1, 5, 63, 200} {
		// A messy stream: random edges, many duplicates, both orientations.
		var edges [][2]int32
		for i := 0; i < 6*n; i++ {
			p := int32(rng.Intn(n))
			q := int32(rng.Intn(n))
			if p == q {
				continue
			}
			edges = append(edges, [2]int32{p, q})
			if i%3 == 0 {
				edges = append(edges, [2]int32{q, p}) // duplicate, flipped
			}
		}
		serial := newCSRBuilder(n)
		serial.flush(edges)
		want := serial.build()
		for ename, exec := range testExecs() {
			b := newCSRBuilder(n)
			b.flush(edges)
			got := b.buildOn(exec)
			if !reflect.DeepEqual(got.off, want.off) || !reflect.DeepEqual(got.tgt, want.tgt) {
				t.Fatalf("n=%d %s: parallel CSR finish differs from serial build", n, ename)
			}
		}
	}
}

// TestBuildGraphL1RejectsMixedShapes: a row whose length or plane count
// differs from row 0's panics before the sweep, naming the row.
func TestBuildGraphL1RejectsMixedShapes(t *testing.T) {
	for _, bad := range []bitvec.Planes{bitvec.NewPlanes(41, 3), bitvec.NewPlanes(40, 2)} {
		rows := []bitvec.Planes{bitvec.NewPlanes(40, 3), bitvec.NewPlanes(40, 3), bad}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "row 2") {
					t.Fatalf("%d×%d row: recovered %v, want a panic naming row 2", bad.Len(), bad.Bits(), r)
				}
			}()
			BuildGraphL1On(nil, rows, 5, RepDense)
		}()
	}
}
