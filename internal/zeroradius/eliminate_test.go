package zeroradius

import (
	"slices"
	"testing"
	"testing/quick"

	"collabscore/internal/bitvec"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// eliminate is the survivor-filter elimination loop the per-merge tree
// (elimTree) replaced, kept as its oracle (TestEliminationTreeMatchesEliminate):
// while surviving candidates disagree somewhere, probe the first position
// where a survivor differs from the first one and drop, in order, the
// candidates that contradict the probe; the first survivor is the answer,
// returned as-is.
func eliminate(rc *world.Run, p int, objs []int, cands []bitvec.Vector) bitvec.Vector {
	if len(objs) == 0 {
		return bitvec.New(0)
	}
	if len(cands) == 0 {
		return bitvec.New(len(objs))
	}
	survivors := slices.Clone(cands)
	for len(survivors) > 1 {
		j := firstDisagreement(survivors)
		if j < 0 {
			break // all survivors identical on objs
		}
		truth := rc.Probe(p, objs[j])
		k := 0
		for _, c := range survivors {
			if c.Get(j) == truth {
				survivors[k] = c
				k++
			}
		}
		survivors = survivors[:k]
	}
	return survivors[0]
}

// firstDisagreement returns an index where at least two of the vectors
// differ, or -1 if all vectors are identical: the first position where a
// vector differs from vs[0], for the first such vector. FirstDiff scans
// words and allocates nothing.
func firstDisagreement(vs []bitvec.Vector) int {
	base := vs[0]
	for _, v := range vs[1:] {
		if d := base.FirstDiff(v); d >= 0 {
			return d
		}
	}
	return -1
}

// eliminateMap is the reference oracle for eliminate: the older
// version, which records every probe in a map and scores the survivors
// against it, and keeps a guard for a probe that would empty the survivor
// set. Both are dead work — a probe is taken where survivors disagree, so
// it always keeps one, and the loop ends with survivors identical on objs —
// and eliminate drops them; this copy pins that the result,
// down to the returned vector's storage, and the probe charges are the
// same.
func eliminateMap(rc *world.Run, p int, objs []int, cands []bitvec.Vector) bitvec.Vector {
	if len(objs) == 0 {
		return bitvec.New(0)
	}
	if len(cands) == 0 {
		return bitvec.New(len(objs))
	}
	// One survivor buffer filtered in place per probe — the per-iteration
	// `next` slice was an allocation per elimination probe per learner.
	survivors := make([]bitvec.Vector, len(cands))
	copy(survivors, cands)
	probed := make(map[int]bool, 8) // position → probed truth
	for len(survivors) > 1 {
		j := firstDisagreement(survivors)
		if j < 0 {
			break // all survivors identical on objs
		}
		truth := rc.Probe(p, objs[j])
		probed[j] = truth
		k := 0
		for _, c := range survivors {
			if c.Get(j) == truth {
				survivors[k] = c
				k++
			}
		}
		if k == 0 {
			// Own deviation from every candidate at j: keep the survivors
			// minus one arbitrary loser to guarantee progress. (No matches
			// means no in-place writes happened, so the prefix is intact.)
			k = len(survivors) - 1
		}
		survivors = survivors[:k]
	}
	// Pick the survivor that agrees best with everything probed. The
	// winner is returned as-is: candidate vectors are shared, immutable
	// inputs, and every downstream consumer only reads them.
	best, bestScore := survivors[0], -1
	for _, c := range survivors {
		score := 0
		for j, truth := range probed {
			if c.Get(j) == truth {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// randomCands draws a candidate set over objs for player p: random vectors,
// near copies of p's truth, duplicates, and — in miss mode — only vectors
// that contradict p's truth somewhere, so the player matches no candidate.
func randomCands(rng *xrand.Stream, truth bitvec.Vector, objs []int, count int, miss bool) []bitvec.Vector {
	own := bitvec.New(len(objs))
	for j, o := range objs {
		own.Set(j, truth.Get(o))
	}
	cands := make([]bitvec.Vector, 0, count)
	for len(cands) < count {
		var c bitvec.Vector
		switch r := rng.Intn(4); {
		case r == 0 && len(cands) > 0:
			c = cands[rng.Intn(len(cands))] // shared duplicate
		case r == 1:
			c = bitvec.New(len(objs))
			for j := range objs {
				c.Set(j, rng.Bool())
			}
		default:
			c = own.Clone()
			for f := rng.Intn(3); f > 0; f-- {
				c.Flip(rng.Intn(len(objs)))
			}
		}
		if miss && c.Equal(own) {
			c = c.Clone()
			c.Flip(rng.Intn(len(objs)))
		}
		cands = append(cands, c)
	}
	return cands
}

// probeSet returns the objects among the first m that player p has probed,
// read off the ledger: charging an object p already knows costs nothing.
// It charges every other object, so call it only after the run is done.
func probeSet(w *world.World, p, m int) bitvec.Vector {
	out := bitvec.New(m)
	for o := 0; o < m; o++ {
		before := w.Probes(p)
		w.ChargeBit(p, o)
		out.Set(o, w.Probes(p) == before)
	}
	return out
}

// TestEliminateMatchesMapOracle pins the survivor-filter eliminate (the
// elimination tree's own oracle) to the map-recording oracle on random
// candidate sets: empty, single, up to 167 candidates, and sets the
// player matches no candidate of. The returned vector must be the oracle's
// very vector and the probe charges equal. Had the oracle's
// every-candidate-eliminated guard ever fired, eliminate would have
// emptied its survivors and panicked, so the test also pins that the
// guard is unreachable.
func TestEliminateMatchesMapOracle(t *testing.T) {
	const n, m = 3, 200
	err := quick.Check(func(seed uint64, rawLen uint8, rawCount uint16, miss bool) bool {
		rng := xrand.New(seed)
		in := prefgen.Uniform(rng.Split(1), n, m)
		objs := rng.Sample(m, 1+int(rawLen)%m)
		for i := len(objs) - 1; i > 0; i-- { // unsorted object lists too
			j := rng.Intn(i + 1)
			objs[i], objs[j] = objs[j], objs[i]
		}
		count := int(rawCount) % 168
		cands := randomCands(rng, in.Truth[1], objs, count, miss)

		wantW, gotW := world.New(in.Truth), world.New(in.Truth)
		want := eliminateMap(world.NewRun(wantW), 1, objs, cands)
		got := eliminate(world.NewRun(gotW), 1, objs, cands)
		if !got.Equal(want) || (count > 0 && !bitvec.SameStorage(got, want)) {
			t.Logf("seed=%d count=%d miss=%v: eliminate returned a different vector", seed, count, miss)
			return false
		}
		if gotW.Probes(1) != wantW.Probes(1) || gotW.TotalProbes() != wantW.TotalProbes() {
			t.Logf("seed=%d count=%d: charged %d probes, oracle %d", seed, count, gotW.Probes(1), wantW.Probes(1))
			return false
		}
		return count == 0 || gotW.Probes(1) < int64(count)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// stridedObjs returns the m objects 0, stride, 2·stride, ….
func stridedObjs(m, stride int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i * stride
	}
	return out
}

// shuffledObjs returns k distinct objects of [0, m) in random order.
func shuffledObjs(rng *xrand.Stream, m, k int) []int {
	objs := rng.Sample(m, k)
	for i := len(objs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		objs[i], objs[j] = objs[j], objs[i]
	}
	return objs
}

// TestEliminationTreeMatchesEliminate: every learner's walk of the
// per-merge elimination tree is the survivor-filter loop it replaced —
// the returned vector is the loop's very vector (same storage), and each
// learner is charged the same probes on the same objects, which are
// exactly the objects of the positions the walk marks in its learned
// row. Candidate sets of size 0, 1, 2, 128, 129 and 300, drawn around one
// learner's truth and, in miss mode, matching no learner; identity,
// strided and shuffled object mappings, and no objects at all. The tree
// never has more than k−1 internal nodes.
func TestEliminationTreeMatchesEliminate(t *testing.T) {
	const n, m = 6, 640
	rng := xrand.New(41)
	in := prefgen.Uniform(rng.Split(1), n, m)
	mappings := []struct {
		name string
		objs []int
	}{
		{"identity", identityObjs(m)},
		{"identity-short", identityObjs(70)},
		{"strided", stridedObjs(200, 3)},
		{"shuffled", shuffledObjs(rng.Split(2), m, 150)},
		{"empty", nil},
	}
	for _, mp := range mappings {
		for _, count := range []int{0, 1, 2, 128, 129, 300} {
			for _, miss := range []bool{false, true} {
				crng := rng.Split(uint64(count), uint64(len(mp.objs)))
				var cands []bitvec.Vector
				if len(mp.objs) == 0 {
					for range count {
						cands = append(cands, bitvec.New(0))
					}
				} else {
					cands = randomCands(crng, in.Truth[0], mp.objs, count, miss)
				}
				tree := newElimTree(cands)
				if max(count-1, 0) < len(tree.nodes) {
					t.Fatalf("%s/%d: %d internal nodes for %d candidates", mp.name, count, len(tree.nodes), count)
				}
				wantW, gotW := world.New(in.Truth), world.New(in.Truth)
				wantRC, gotRC := world.NewRun(wantW), world.NewRun(gotW)
				rows := newLearned(n, len(mp.objs))
				for p := 0; p < n; p++ {
					want := eliminate(wantRC, p, mp.objs, cands)
					got := tree.walk(gotRC, p, mp.objs, rows.Row(p), identityObjs(len(mp.objs)))
					if !got.Equal(want) || (count > 0 && len(mp.objs) > 0 && !bitvec.SameStorage(got, want)) {
						t.Fatalf("%s/%d/miss=%v player %d: the walk returned a different vector", mp.name, count, miss, p)
					}
					if gotW.Probes(p) != wantW.Probes(p) {
						t.Fatalf("%s/%d/miss=%v player %d: walk charged %d probes, loop %d",
							mp.name, count, miss, p, gotW.Probes(p), wantW.Probes(p))
					}
				}
				for p := 0; p < n; p++ {
					want := probeSet(wantW, p, m)
					if !probeSet(gotW, p, m).Equal(want) {
						t.Fatalf("%s/%d/miss=%v player %d: walk probed other objects than the loop", mp.name, count, miss, p)
					}
					marked := bitvec.New(m)
					for k, o := range mp.objs {
						if rows.Row(p)[k/64]>>(uint(k)%64)&1 != 0 {
							marked.Set(o, true)
						}
					}
					if !marked.Equal(want) {
						t.Fatalf("%s/%d/miss=%v player %d: walk marked other positions than it probed", mp.name, count, miss, p)
					}
				}
			}
		}
	}
}

// TestEliminateNoObjects pins the degenerate shapes of a tree walk: no
// objects yields an empty vector and no candidates a zero vector, without
// probing.
func TestEliminateNoObjects(t *testing.T) {
	in := prefgen.Uniform(xrand.New(2), 2, 64)
	w := world.New(in.Truth)
	rc := world.NewRun(w)
	if v := newElimTree([]bitvec.Vector{bitvec.New(0)}).walk(rc, 0, nil, nil, nil); v.Len() != 0 {
		t.Fatalf("no objects: length %d", v.Len())
	}
	if v := newElimTree(nil).walk(rc, 0, []int{3, 9}, nil, nil); v.Len() != 2 || v.Count() != 0 {
		t.Fatalf("no candidates: %v", v)
	}
	if w.TotalProbes() != 0 {
		t.Fatal("degenerate walk probed")
	}
}

// TestEliminateAllocFree: a tree walk allocates nothing, whatever the
// candidate count — the tree is built once per merge, and a learner only
// follows it.
func TestEliminateAllocFree(t *testing.T) {
	const m = 256
	rng := xrand.New(9)
	in := prefgen.Uniform(rng.Split(1), 2, m)
	rc := world.NewRun(world.New(in.Truth))
	objs := identityObjs(m)
	row := make([]uint64, m/64)
	for _, count := range []int{128, 129, 300} {
		tree := newElimTree(randomCands(rng, in.Truth[0], objs, count, true))
		if got := testing.AllocsPerRun(50, func() { tree.walk(rc, 0, objs, row, objs) }); got != 0 {
			t.Fatalf("%d candidates: a walk allocates %v times per run, want 0", count, got)
		}
	}
}
