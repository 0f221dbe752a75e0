package zeroradius

import (
	"slices"
	"sort"
	"testing"

	"collabscore/internal/adversary"
	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

func identityObjs(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

func allPlayers(n int) []int { return identityObjs(n) }

// exactFraction runs ZeroRadius and returns the fraction of honest players
// recovering their exact preference vector, plus the max honest error.
func exactFraction(t *testing.T, w *world.World, in *prefgen.Instance, bPrime int, seed uint64, pr Params) (float64, int) {
	t.Helper()
	n, m := w.N(), w.M()
	out, _ := Run(world.NewRun(w), allPlayers(n), identityObjs(m), bPrime, xrand.New(seed), pr)
	exact, honest, maxErr := 0, 0, 0
	for p := 0; p < n; p++ {
		if !w.IsHonest(p) {
			continue
		}
		honest++
		d := in.Truth[p].Hamming(out[p])
		if d == 0 {
			exact++
		}
		if d > maxErr {
			maxErr = d
		}
	}
	return float64(exact) / float64(honest), maxErr
}

// TestExactRecoveryIdenticalClusters is Theorem 4: with planted identical
// clusters large relative to the vote threshold, every player recovers its
// exact preference vector. The config keeps clusters of size n/B' ≫ the
// per-leaf support threshold, the regime of the whp analysis.
func TestExactRecoveryIdenticalClusters(t *testing.T) {
	const n, m, b = 256, 2048, 2
	rng := xrand.New(11)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	frac, maxErr := exactFraction(t, w, in, b, 21, Defaults())
	if frac != 1 {
		t.Fatalf("exact-recovery fraction %.3f (max err %d), want 1", frac, maxErr)
	}
}

// TestRecoveryModerateClusters: with B'=8 (smaller clusters) occasional
// leaf-level support failures are expected at simulation n, but the vast
// majority of players must still recover exactly.
func TestRecoveryModerateClusters(t *testing.T) {
	const n, m, b = 256, 1024, 8
	rng := xrand.New(13)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	frac, _ := exactFraction(t, w, in, b, 23, Defaults())
	if frac < 0.9 {
		t.Fatalf("exact-recovery fraction %.3f, want ≥ 0.9", frac)
	}
}

// TestProbeComplexity verifies the O(B'·log n) probe bound shape: probes per
// player must be far below m when m is large.
func TestProbeComplexity(t *testing.T) {
	const n, m, b = 256, 4096, 2
	rng := xrand.New(77)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	frac, _ := exactFraction(t, w, in, b, 31, Defaults())
	if frac != 1 {
		t.Fatalf("exact-recovery fraction %.3f, want 1", frac)
	}
	maxProbes := w.MaxHonestProbes()
	if maxProbes >= int64(m)/4 {
		t.Fatalf("probes per player %d — insufficient savings over probing all %d objects", maxProbes, m)
	}
}

// TestSmallInputBaseCase: inputs below the base-case threshold trigger
// probe-everything and must be exactly correct without cluster structure.
func TestSmallInputBaseCase(t *testing.T) {
	const n, m = 4, 64
	rng := xrand.New(3)
	in := prefgen.Uniform(rng.Split(1), n, m)
	w := world.New(in.Truth)
	out, _ := Run(world.NewRun(w), allPlayers(n), identityObjs(m), 2, rng.Split(2), Defaults())
	for p := 0; p < n; p++ {
		if d := in.Truth[p].Hamming(out[p]); d != 0 {
			t.Fatalf("base case player %d error %d", p, d)
		}
	}
}

// TestEmptyInputs must not panic and must return sane shapes.
func TestEmptyInputs(t *testing.T) {
	rng := xrand.New(4)
	in := prefgen.Uniform(rng.Split(1), 4, 8)
	w := world.New(in.Truth)
	out, _ := Run(world.NewRun(w), nil, identityObjs(8), 2, rng.Split(2), Defaults())
	if len(out) != 0 {
		t.Fatalf("no players should give empty output, got %d", len(out))
	}
	out, _ = Run(world.NewRun(w), allPlayers(4), nil, 2, rng.Split(3), Defaults())
	for p, v := range out {
		if v.Len() != 0 {
			t.Fatalf("player %d got vector of length %d for no objects", p, v.Len())
		}
	}
}

// TestSubsetOfObjects: ZeroRadius over a strict subset of the object space
// must return vectors indexed like that subset.
func TestSubsetOfObjects(t *testing.T) {
	const n, m = 64, 128
	rng := xrand.New(5)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, 16)
	w := world.New(in.Truth)
	objs := []int{3, 17, 40, 41, 90, 100, 101, 120}
	out, _ := Run(world.NewRun(w), allPlayers(n), objs, 4, rng.Split(2), Defaults())
	for p := 0; p < n; p++ {
		v := out[p]
		if v.Len() != len(objs) {
			t.Fatalf("player %d vector length %d, want %d", p, v.Len(), len(objs))
		}
		for j, o := range objs {
			if v.Get(j) != w.PeekTruth(p, o) {
				t.Fatalf("player %d wrong at subset position %d (object %d)", p, j, o)
			}
		}
	}
}

// TestDishonestCannotCorruptHonest is the §7.2 remark: dishonest players
// cannot significantly impact ZeroRadius — honest players still recover
// their vectors when enough honest identical peers exist.
func TestDishonestCannotCorruptHonest(t *testing.T) {
	const n, m, b = 256, 2048, 2
	rng := xrand.New(6)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	f := n / (3 * b)
	perm := rng.Split(9).Perm(n)
	adversary.Corrupt(w, f, perm, func(p int) world.Behavior {
		return adversary.RandomLiar{Seed: 11}
	})
	frac, maxErr := exactFraction(t, w, in, b, 41, Defaults())
	if frac != 1 {
		t.Fatalf("honest exact-recovery fraction %.3f (max err %d) under random liars, want 1", frac, maxErr)
	}
}

// TestColludersCannotInjectWinningVector: a dishonest bloc publishing a
// coordinated junk vector may enter the candidate set, but honest players'
// elimination probes discard it.
func TestColludersCannotInjectWinningVector(t *testing.T) {
	const n, m, b = 256, 2048, 2
	rng := xrand.New(8)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	f := n / (3 * b)
	coll := adversary.NewColluder(99, m)
	perm := rng.Split(10).Perm(n)
	adversary.Corrupt(w, f, perm, func(p int) world.Behavior { return coll })
	frac, maxErr := exactFraction(t, w, in, b, 43, Defaults())
	if frac != 1 {
		t.Fatalf("honest exact-recovery fraction %.3f (max err %d) under colluders, want 1", frac, maxErr)
	}
}

// TestDeterminism: same world + same stream → identical outputs.
func TestDeterminism(t *testing.T) {
	const n, m = 64, 128
	mk := func() map[int]int {
		rng := xrand.New(12)
		in := prefgen.IdenticalClusters(rng.Split(1), n, m, 16)
		w := world.New(in.Truth)
		out, _ := Run(world.NewRun(w), allPlayers(n), identityObjs(m), 4, rng.Split(2), Defaults())
		sig := make(map[int]int, n)
		for p, v := range out {
			sig[p] = v.Count()
		}
		return sig
	}
	a, b := mk(), mk()
	for p := range a {
		if a[p] != b[p] {
			t.Fatal("nondeterministic output")
		}
	}
}

// TestSplitHalfNonEmpty: the partition helper never returns an empty half
// for inputs of size ≥ 2.
func TestSplitHalfNonEmpty(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 200; trial++ {
		size := 2 + rng.Intn(50)
		a, b := splitHalf(rng, size)
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("empty half for size %d", size)
		}
		if len(a)+len(b) != size {
			t.Fatalf("lost elements: %d + %d != %d", len(a), len(b), size)
		}
	}
}

// TestScaledParamsStillRecover: the simulation-scale parameterization keeps
// exact recovery in the planted regime.
func TestScaledParamsStillRecover(t *testing.T) {
	const n, m, b = 256, 512, 2
	rng := xrand.New(15)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	frac, maxErr := exactFraction(t, w, in, b, 51, Scaled())
	if frac < 0.99 {
		t.Fatalf("scaled exact-recovery fraction %.3f (max err %d), want ≥0.99", frac, maxErr)
	}
}

// TestSupported: the one support tally orders by support descending, then
// Key; clamps the threshold to ≥ 1; and admits the topK most supported
// vectors whatever their support. It returns pub's own vectors, the first
// of each equal run — on random tallies exactly the vectors, in the order,
// of the Key-string oracle supportedKey.
func TestSupported(t *testing.T) {
	// Length-8 vectors whose keys order by their single word: d < b.
	a := bitvec.FromBits([]int{1, 1, 0, 0, 0, 0, 0, 0})
	b := bitvec.FromBits([]int{0, 1, 0, 0, 0, 0, 0, 0})
	c := bitvec.FromBits([]int{0, 0, 1, 0, 0, 0, 0, 0})
	d := bitvec.FromBits([]int{1, 0, 0, 0, 0, 0, 0, 0})
	// Support: a 3, b 2, d 2, c 1.
	pub := []bitvec.Vector{b, a, c, d, a.Clone(), b.Clone(), a.Clone(), d.Clone()}
	cases := []struct {
		name      string
		threshold float64
		topK      int
		want      []bitvec.Vector
	}{
		{"threshold 2", 2, 0, []bitvec.Vector{a, d, b}},
		{"threshold 3", 3, 0, []bitvec.Vector{a}},
		{"fractional threshold", 2.5, 0, []bitvec.Vector{a}},
		{"threshold 0 clamps to 1", 0, 0, []bitvec.Vector{a, d, b, c}},
		{"negative threshold clamps to 1", -4, 0, []bitvec.Vector{a, d, b, c}},
		{"nothing supported", 10, 0, nil},
		{"topK alone", 10, 2, []bitvec.Vector{a, d}},
		{"topK admits low support", 3, 4, []bitvec.Vector{a, d, b, c}},
		{"topK past the tally", 10, 9, []bitvec.Vector{a, d, b, c}},
	}
	for _, tc := range cases {
		got := Supported(pub, tc.threshold, tc.topK)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %d candidates, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range got {
			if !got[i].Equal(tc.want[i]) {
				t.Fatalf("%s: candidate %d is %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
	got := Supported(pub, 1, 0)
	for i, first := range []int{1, 3, 0, 2} { // a, d, b, c first appear here
		if !bitvec.SameStorage(got[i], pub[first]) {
			t.Fatalf("candidate %d is not pub[%d], the first of its equals", i, first)
		}
	}
	if got := Supported(nil, 1, 4); len(got) != 0 {
		t.Fatalf("empty tally gave %d candidates", len(got))
	}

	// A key that is a prefix of another orders first: same first word,
	// and the longer vector's second word starts with the shorter one's
	// length bytes.
	short, long := bitvec.New(7), bitvec.New(100)
	short.SetWord(0, 5)
	long.SetWord(0, 5)
	long.SetWord(1, 7)
	for _, pub := range [][]bitvec.Vector{{long, short}, {short, long}} {
		got := Supported(pub, 1, 0)
		if len(got) != 2 || !bitvec.SameStorage(got[0], short) {
			t.Fatal("a key's proper prefix does not order first")
		}
	}

	// The hashed tally against the Key-string oracle: support ties among
	// many vectors, vectors of different lengths side by side (their keys
	// order on the length bytes and on key bytes past the shorter key's
	// words), and many distinct vectors against few repeats.
	rng := xrand.New(17)
	lengths := []int{1, 7, 8, 63, 64, 65, 128, 129, 256, 300}
	for trial := 0; trial < 200; trial++ {
		var pool []bitvec.Vector
		for k := 1 + rng.Intn(60); k > 0; k-- {
			v := bitvec.New(lengths[rng.Intn(len(lengths))])
			for j := 0; j < v.Len(); j++ {
				v.Set(j, rng.Intn(4) == 0)
			}
			if trial%3 == 0 && v.Len() > 0 { // low words equal, ties decided later
				v.SetWord(0, 0)
			}
			pool = append(pool, v)
		}
		var pub []bitvec.Vector
		for k := rng.Intn(400); k > 0; k-- {
			pub = append(pub, pool[rng.Intn(len(pool))].Clone())
		}
		threshold, topK := float64(rng.Intn(6)), rng.Intn(8)
		got, want := Supported(pub, threshold, topK), supportedKey(pub, threshold, topK)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, oracle %d", trial, len(got), len(want))
		}
		for i := range got {
			if !bitvec.SameStorage(got[i], want[i]) {
				t.Fatalf("trial %d: candidate %d is not the oracle's", trial, i)
			}
		}
	}
}

// supportedKey is the Key-string tally Supported replaced, kept as its
// oracle: support descending, ties by Key, the first equal vector of pub.
func supportedKey(pub []bitvec.Vector, threshold float64, topK int) []bitvec.Vector {
	type tally struct {
		vec     bitvec.Vector
		key     string
		support int
	}
	var all []tally
	at := make(map[string]int)
	for _, v := range pub {
		k := v.Key()
		if i, ok := at[k]; ok {
			all[i].support++
			continue
		}
		at[k] = len(all)
		all = append(all, tally{vec: v, key: k, support: 1})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].support != all[j].support {
			return all[i].support > all[j].support
		}
		return all[i].key < all[j].key
	})
	threshold = max(threshold, 1)
	var out []bitvec.Vector
	for i, c := range all {
		if float64(c.support) >= threshold || i < topK {
			out = append(out, c.vec)
		}
	}
	return out
}

// stridedPerm returns every stride-th entry of a random permutation of
// [0, n): a player subset in no particular order.
func stridedPerm(rng *xrand.Stream, n, stride int) []int {
	perm := rng.Perm(n)
	var P []int
	for i := 0; i < n; i += stride {
		P = append(P, perm[i])
	}
	return P
}

// TestOutputAlignedWithP: the output is aligned with P, not indexed by
// player id. On a permuted, strided subset every honest P[i] of an
// identical cluster finds its truth at out[i].
func TestOutputAlignedWithP(t *testing.T) {
	const n, m, b = 256, 1024, 2
	rng := xrand.New(17)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	adversary.Corrupt(w, 12, rng.Split(3).Perm(n), func(int) world.Behavior { return adversary.FlipAll{} })
	P := stridedPerm(rng.Split(4), n, 2)
	out, _ := Run(world.NewRun(w), P, identityObjs(m), b, rng.Split(5), Defaults())
	if len(out) != len(P) {
		t.Fatalf("got %d outputs for %d players", len(out), len(P))
	}
	checked := 0
	for i, p := range P {
		if !w.IsHonest(p) {
			continue
		}
		checked++
		if d := in.Truth[p].Hamming(out[i]); d != 0 {
			t.Fatalf("out[%d] is %d away from player %d's truth", i, d, p)
		}
	}
	if checked < len(P)/2 {
		t.Fatalf("only %d honest players checked", checked)
	}
}

// TestZeroRadiusScheduleMatrix: the serial reference, a fixed four-worker
// schedule and the parallel default give byte-identical outputs and probe
// counts (DESIGN.md §9), on a permuted player subset with dishonest
// publishers so the cross-fill and assembly paths all run.
func TestZeroRadiusScheduleMatrix(t *testing.T) {
	const n, m, b = 192, 512, 4
	rng := xrand.New(19)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	P := stridedPerm(rng.Split(4), n, 1)
	var refOut []bitvec.Vector
	var refProbes []int64
	for _, sched := range []struct {
		name string
		exec *par.Runner
	}{{"serial", par.Serial()}, {"fixed4", par.Fixed(4)}, {"parallel", par.Parallel()}} {
		w := world.New(in.Truth)
		adversary.Corrupt(w, 16, rng.Split(3).Perm(n), func(int) world.Behavior { return adversary.RandomLiar{Seed: 5} })
		out, _ := Run(world.NewRunOn(w, sched.exec), P, identityObjs(m), b, rng.Split(5), Scaled())
		probes := make([]int64, n)
		for p := range probes {
			probes[p] = w.Probes(p)
		}
		if refOut == nil {
			refOut, refProbes = out, probes
			continue
		}
		for i := range out {
			if !out[i].Equal(refOut[i]) {
				t.Fatalf("out[%d] differs under %s", i, sched.name)
			}
		}
		for p := range probes {
			if probes[p] != refProbes[p] {
				t.Fatalf("player %d probes %d under %s, %d serially", p, probes[p], sched.name, refProbes[p])
			}
		}
	}
}

// TestLearnedPositionsAreChargedTruth: every position the Learned table
// marks for an honest player is one the player has already been charged
// for, and its output bit there is its truth; dishonest players learn
// nothing. The run recurses three levels over a shuffled object subset
// and a permuted player set, so rows and positions differ from ids and
// walks at every level mark positions, and the table is the same under
// the serial and a four-worker schedule.
func TestLearnedPositionsAreChargedTruth(t *testing.T) {
	const n, m, width, b = 384, 512, 200, 4
	rng := xrand.New(23)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/4)
	objs := rng.Split(2).Perm(m)[:width]
	P := stridedPerm(rng.Split(4), n, 1)
	var ref Learned
	for _, exec := range []*par.Runner{par.Serial(), par.Fixed(4)} {
		w := world.New(in.Truth)
		adversary.Corrupt(w, n/24, rng.Split(3).Perm(n), func(int) world.Behavior { return adversary.RandomLiar{Seed: 7} })
		out, learned := Run(world.NewRunOn(w, exec), P, objs, b, rng.Split(5), Scaled())
		partial := 0
		for i, p := range P {
			row := learned.Row(i)
			count := 0
			for j, o := range objs {
				if row[j/64]>>(uint(j)%64)&1 == 0 {
					continue
				}
				count++
				if !w.IsHonest(p) {
					t.Fatalf("dishonest player %d learned position %d", p, j)
				}
				before := w.Probes(p)
				if w.ChargeBit(p, o); w.Probes(p) != before {
					t.Fatalf("player %d learned position %d (object %d) without probing it", p, j, o)
				}
				if out[i].Get(j) != w.PeekTruth(p, o) {
					t.Fatalf("player %d learned position %d, but its output there is not its truth", p, j)
				}
			}
			if w.IsHonest(p) && count > 0 && count < width {
				partial++
			}
		}
		if partial < len(P)/2 {
			t.Fatalf("only %d of %d rows learn some but not all positions", partial, len(P))
		}
		if ref.words == nil {
			ref = learned
		} else if !slices.Equal(ref.words, learned.words) {
			t.Fatal("learned table differs between the serial and the four-worker schedule")
		}
	}
}
