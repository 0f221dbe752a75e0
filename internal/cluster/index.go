// Neighbor discovery is chosen by IndexSpec (DESIGN.md §13): the protocol
// needs the graph where players p and q are adjacent iff their sample-set
// vectors are within the edge threshold, but HOW candidate pairs are found
// is an implementation choice. The exact all-pairs sweep (sweepPairs) is
// the reference oracle; the LSH banding index buckets players by hashes of
// sampled bit positions and verifies exact Hamming distance only within
// buckets, replacing the O(n²) wall with near-linear work on clustered
// inputs. Both are deterministic given their inputs and produce identical
// graphs under every par.Runner schedule.
//
// Orthogonally, WHERE the discovered edges are stored is the graph
// representation choice (DESIGN.md §16): dense bitset rows (BitGraph) or
// compressed sparse rows (CSRGraph), selected by GraphRep and named by the
// same IndexSpec.
package cluster

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/xrand"
)

// GraphRep selects the neighbor-graph representation an index builds into.
// The zero value RepAuto defers to the size rule: dense below
// AutoSparseCutoff players, sparse at or above it. Either representation
// yields byte-identical clusterings over the same edge set; the choice
// trades the BitGraph's n² bits (word-parallel live-degree counting)
// against the CSRGraph's Θ(n + edges) words (the only option at 10⁶
// players, where dense is 125 GB).
type GraphRep int

const (
	// RepAuto picks dense below AutoSparseCutoff, sparse at or above.
	RepAuto GraphRep = iota
	// RepDense forces the bitset BitGraph.
	RepDense
	// RepSparse forces the CSRGraph.
	RepSparse
)

// AutoSparseCutoff is the player count at which RepAuto switches from the
// dense bitset to CSR. At the cutoff the dense adjacency is 128 MB
// (n²/8 bytes) and growing quadratically, while the sparse graph tracks
// the actual edge count — below it, dense is cheap enough that its
// word-parallel peeling wins.
const AutoSparseCutoff = 1 << 15

// pick resolves RepAuto against the player count.
func (r GraphRep) pick(n int) GraphRep {
	if r != RepAuto {
		return r
	}
	if n >= AutoSparseCutoff {
		return RepSparse
	}
	return RepDense
}

// Default LSH shape: DefaultBands hash tables of DefaultRows sampled bit
// positions each. For a close pair agreeing on a fraction s of the
// informative positions, per-band collision probability is s^Rows and the
// miss probability (1 − s^Rows)^Bands; at the paper-regime thresholds
// (threshold ≪ informative positions, so s ≈ 1) the defaults put the miss
// probability well below 10⁻³ per pair — see DESIGN.md §13 for the recall
// argument and the planted-world tests that pin it.
const (
	DefaultBands = 16
	DefaultRows  = 12
)

// LSH is the banding index: a bit-sampling locality-sensitive hash for
// Hamming distance. Bands hash tables each hash Rows sampled bit positions
// of every vector into a bucket key; players sharing a bucket in any band
// become candidate pairs, and only candidates are verified by exact
// Hamming distance. Close pairs (distance ≤ threshold) agree on almost
// every position, so they collide in some band with probability
// 1 − (1 − s^Rows)^Bands ≈ 1; far pairs almost never do, so on clustered
// inputs the verification work is Σ (bucket size)² ≈ n·(cluster size)
// instead of n².
//
// LSH is approximate: it may miss a vanishing fraction of the exact
// sweep's edges but never invents one, because every candidate is verified
// by exact distance.
//
// Determinism: the sampled positions come from the rng stream passed to
// BuildGraph (split by the caller from the iteration's shared coins —
// xrand.SplitValue, no global randomness), hashing and bucketing are pure
// functions of the vectors, each candidate pair is verified in exactly one
// band (the first band where its hashes collide), and edges are written as
// an order-insensitive set union — so the graph is identical under serial,
// fixed-width, and parallel schedules (TestGraphBuildersAgree).
//
// Positions are sampled only from the informative columns (bits on which
// the players disagree somewhere); constant columns carry no distance
// signal. When every column is constant — all vectors identical, the LSH
// worst case — every player lands in one giant bucket and the index
// degenerates to the exact sweep's O(n²) verification (of distance-0
// pairs), correct but no faster.
type LSH struct {
	// Bands is the number of hash tables; 0 means DefaultBands.
	Bands int
	// Rows is the number of sampled bit positions per band; 0 means
	// DefaultRows.
	Rows int
}

// BuildGraph returns the graph, in representation rep, with an edge for
// (a subset of) the pairs p < q with z[p].Hamming(z[q]) ≤ threshold. rng
// carries the shared coins that sample the hash positions; exec nil means
// the default parallel executor. Verified edges flow through the same
// emission path as the exact sweep (emitEdge, drainEdges), so the same
// discovery pass fills either the dense or the sparse representation.
func (ix LSH) BuildGraph(exec *par.Runner, z []bitvec.Vector, threshold int, rng *xrand.Stream, rep GraphRep) Graph {
	b, r := ix.Bands, ix.Rows
	if b < 1 {
		b = DefaultBands
	}
	if r < 1 {
		r = DefaultRows
	}
	n := len(z)
	sink := newGraphSink(n, rep)
	if n < 2 {
		return sink.finish(exec)
	}

	// Informative positions: bits where some pair of players disagrees
	// (word-column OR minus AND — commutative reductions, so the parallel
	// fan-out over word columns cannot affect the result). Constant
	// positions contribute nothing to any pairwise distance.
	words := z[0].Words()
	orW := make([]uint64, words)
	andW := make([]uint64, words)
	exec.For(words, func(wi int) {
		o, a := uint64(0), ^uint64(0)
		for p := 0; p < n; p++ {
			w := z[p].Word(wi)
			o |= w
			a &= w
		}
		orW[wi], andW[wi] = o, a
	})
	var positions []int
	for wi := 0; wi < words; wi++ {
		for x := orW[wi] &^ andW[wi]; x != 0; x &= x - 1 {
			positions = append(positions, wi*64+bits.TrailingZeros64(x))
		}
	}

	// Sample the Bands×Rows hash positions from the informative set with
	// replacement, serially from the index stream (deterministic given the
	// seed). With no informative positions every hash below stays at the
	// offset basis and all players share one bucket per band.
	sampled := make([]int32, b*r)
	for i := range sampled {
		if len(positions) == 0 {
			break
		}
		sampled[i] = int32(positions[rng.Intn(len(positions))])
	}

	// Hash every player's bands (parallel over players; pure function of
	// z[p], index-ordered writes into the flat hashes array).
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	hashes := make([]uint64, n*b)
	if len(positions) > 0 {
		exec.For(n, func(p int) {
			v := z[p]
			for band := 0; band < b; band++ {
				h := uint64(fnvOffset)
				for _, pos := range sampled[band*r : (band+1)*r] {
					bit := v.Word(int(pos)>>6) >> (uint(pos) & 63) & 1
					h = (h ^ bit) * fnvPrime
				}
				hashes[p*b+band] = h
			}
		})
	}

	// Bucket players per band (parallel over bands; each band appends its
	// players in id order, buckets in first-touch order, so the flattened
	// task list is schedule-independent). Singleton buckets generate no
	// pairs and are dropped.
	type bucket struct {
		band    int
		members []int32
	}
	perBand := make([][]bucket, b)
	exec.For(b, func(band int) {
		idx := make(map[uint64]int)
		var bks []bucket
		for p := 0; p < n; p++ {
			h := hashes[p*b+band]
			bi, ok := idx[h]
			if !ok {
				bi = len(bks)
				idx[h] = bi
				bks = append(bks, bucket{band: band})
			}
			bks[bi].members = append(bks[bi].members, int32(p))
		}
		perBand[band] = bks
	})
	var tasks []bucket
	for _, bks := range perBand {
		for _, bk := range bks {
			if len(bk.members) > 1 {
				tasks = append(tasks, bk)
			}
		}
	}

	// Verify candidates (parallel over buckets). A pair sharing buckets in
	// several bands is verified exactly once — in the first band where its
	// hashes collide; later bands detect the earlier collision with a cheap
	// hash-prefix comparison and skip. Verified edges accumulate in
	// per-worker buffers and flush into the sink in batches (emitEdge): the
	// graph is the set union of the verified pairs and both sinks ingest
	// edges as an unordered set, so neither the flush order nor the worker
	// assignment can affect the result.
	bufs := make([][][2]int32, exec.Workers(len(tasks)))
	exec.ForWorker(len(tasks), func(wk, t int) {
		bk := tasks[t]
		buf := bufs[wk]
		members := bk.members
		for i := 0; i < len(members); i++ {
			p := int(members[i])
			hp := hashes[p*b : p*b+bk.band]
		pairs:
			for j := i + 1; j < len(members); j++ {
				q := int(members[j])
				hq := hashes[q*b:]
				for e := range hp {
					if hp[e] == hq[e] {
						continue pairs // verified at the earlier band
					}
				}
				if z[p].Hamming(z[q]) <= threshold {
					buf = emitEdge(sink, buf, p, q)
				}
			}
		}
		bufs[wk] = buf
	})
	return drainEdges(exec, sink, bufs)
}

// IndexSpec is the serializable neighbor-index knob carried by protocol
// parameters, scenario configs, and sweep grids. The zero value selects
// the exact sweep with the auto representation rule — the default, so
// unset knobs keep the historical behavior bit for bit below
// AutoSparseCutoff (and the historical clustering, via a sparse graph,
// above it). Kind "lsh" selects the banding index with the given shape
// (zero Bands/Rows mean the defaults); Graph forces a representation.
type IndexSpec struct {
	// Kind is "" or "exact" for the all-pairs oracle, "lsh" for banding.
	Kind string
	// Bands/Rows shape the LSH index (ignored for exact).
	Bands int
	Rows  int
	// Graph selects the representation: "" or "auto" for the size rule
	// (dense below AutoSparseCutoff), "dense" or "sparse" to force one.
	Graph string
}

// IsExact reports whether the spec selects the exact reference sweep
// (regardless of representation).
func (sp IndexSpec) IsExact() bool { return sp.Kind == "" || sp.Kind == "exact" }

// Rep returns the spec's representation choice.
func (sp IndexSpec) Rep() GraphRep {
	switch sp.Graph {
	case "dense":
		return RepDense
	case "sparse":
		return RepSparse
	}
	return RepAuto
}

// String returns the canonical flag/axis form: "exact", "lsh", or
// "lsh:BANDS:ROWS", with a "+dense"/"+sparse" suffix when a representation
// is forced (auto, the default, has no suffix). ParseIndexSpec inverts it.
func (sp IndexSpec) String() string {
	base := "exact"
	if !sp.IsExact() {
		if sp.Bands == 0 && sp.Rows == 0 {
			base = sp.Kind
		} else {
			base = fmt.Sprintf("%s:%d:%d", sp.Kind, sp.Bands, sp.Rows)
		}
	}
	switch sp.Graph {
	case "dense", "sparse":
		return base + "+" + sp.Graph
	}
	return base
}

// ParseIndexSpec parses the "exact" | "lsh" | "lsh:BANDS:ROWS" forms used
// by Config.NeighborIndex, sweep specs, and cmd/sweep's -nidx flag, each
// optionally suffixed "+dense" | "+sparse" | "+auto" to pick the graph
// representation ("" and "exact" both yield the zero spec, and "+auto"
// normalizes to the empty Graph field, so defaults stay canonical).
// Parsing is strict — wrong field counts, non-positive shapes, and unknown
// representations are rejected rather than silently running a wrong
// experiment.
func ParseIndexSpec(s string) (IndexSpec, error) {
	bad := func() (IndexSpec, error) {
		return IndexSpec{}, fmt.Errorf("cluster: bad neighbor index %q (want exact, lsh, or lsh:BANDS:ROWS with positive shape, optionally +dense/+sparse/+auto)", s)
	}
	base, rep := s, ""
	if i := strings.IndexByte(s, '+'); i >= 0 {
		base, rep = s[:i], s[i+1:]
		switch rep {
		case "auto":
			rep = "" // canonical form of the default rule
		case "dense", "sparse":
		default:
			return bad()
		}
	}
	sp := IndexSpec{Graph: rep}
	switch base {
	case "", "exact":
		return sp, nil
	case "lsh":
		sp.Kind = "lsh"
		return sp, nil
	}
	parts := strings.Split(base, ":")
	if len(parts) != 3 || parts[0] != "lsh" {
		return bad()
	}
	bands, err1 := strconv.Atoi(parts[1])
	rows, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || bands < 1 || rows < 1 {
		return bad()
	}
	sp.Kind, sp.Bands, sp.Rows = "lsh", bands, rows
	return sp, nil
}

// BuildGraph builds the neighbor graph the spec names — the one dispatch
// point every Hamming caller goes through. The exact kind runs the pair
// sweep with its pivot stage (sweepPairs) and consumes no randomness;
// "lsh" runs the banding index on rng. Either fills the spec's
// representation. exec nil
// means the default parallel executor. An unknown Kind panics: specs
// reaching protocol code went through ParseIndexSpec (or are zero), so it
// is a programming error, not bad input.
func (sp IndexSpec) BuildGraph(exec *par.Runner, z []bitvec.Vector, threshold int, rng *xrand.Stream) Graph {
	switch {
	case sp.IsExact():
		hamming := func(p, q int) int { return z[p].Hamming(z[q]) }
		return sweepPairs(exec, len(z), threshold, sp.Rep(), hamming, func(p, q int) bool {
			return hamming(p, q) <= threshold
		})
	case sp.Kind == "lsh":
		return LSH{Bands: sp.Bands, Rows: sp.Rows}.BuildGraph(exec, z, threshold, rng, sp.Rep())
	}
	panic(fmt.Sprintf("cluster: unknown neighbor index kind %q", sp.Kind))
}
