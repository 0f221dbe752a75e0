package zeroradius

import (
	"testing"
	"testing/quick"

	"collabscore/internal/bitvec"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// eliminateMap is the reference oracle for eliminate: the historical
// version, which records every probe in a map and scores the survivors
// against it, and keeps a guard for a probe that would empty the survivor
// set. Both are dead work — a probe is taken where survivors disagree, so
// it always keeps one, and the loop ends with survivors identical on objs —
// and the production loop drops them; this copy pins that the result,
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

// TestEliminateMatchesMapOracle pins the allocation-free eliminate to the
// map-recording oracle on random candidate sets: empty, single, beyond the
// stack buffer, and sets the player matches no candidate of. The returned
// vector must be the oracle's very vector and the probe charges equal. Had
// the oracle's every-candidate-eliminated guard ever fired, eliminate would
// have emptied its survivors and panicked, so the test also pins that the
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
		count := int(rawCount) % (eliminateStack + 40)
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

// TestEliminateNoObjects pins the degenerate shapes: no objects yields an
// empty vector and no candidates a zero vector, without probing.
func TestEliminateNoObjects(t *testing.T) {
	in := prefgen.Uniform(xrand.New(2), 2, 64)
	w := world.New(in.Truth)
	rc := world.NewRun(w)
	if v := eliminate(rc, 0, nil, []bitvec.Vector{bitvec.New(0)}); v.Len() != 0 {
		t.Fatalf("no objects: length %d", v.Len())
	}
	if v := eliminate(rc, 0, []int{3, 9}, nil); v.Len() != 2 || v.Count() != 0 {
		t.Fatalf("no candidates: %v", v)
	}
	if w.TotalProbes() != 0 {
		t.Fatal("degenerate eliminate probed")
	}
}

// TestEliminateAllocFree guards the stack survivor buffer: up to
// eliminateStack candidates, a warm elimination allocates nothing; above
// it, exactly the one heap buffer.
func TestEliminateAllocFree(t *testing.T) {
	const m = 256
	rng := xrand.New(9)
	in := prefgen.Uniform(rng.Split(1), 2, m)
	rc := world.NewRun(world.New(in.Truth))
	objs := identityObjs(m)
	for _, tc := range []struct{ count, allocs int }{{eliminateStack, 0}, {eliminateStack + 1, 1}} {
		cands := randomCands(rng, in.Truth[0], objs, tc.count, true)
		if got := testing.AllocsPerRun(50, func() { eliminate(rc, 0, objs, cands) }); got != float64(tc.allocs) {
			t.Fatalf("%d candidates: eliminate allocates %v times per run, want %d", tc.count, got, tc.allocs)
		}
	}
}
