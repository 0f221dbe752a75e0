package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(r *rand.Rand, n int) Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func TestNewIsZeroed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len() = %d, want %d", v.Len(), n)
		}
		if v.Count() != 0 {
			t.Fatalf("New(%d) has %d set bits", n, v.Count())
		}
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i, true)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Flip(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after Flip", i)
		}
		v.Flip(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after double Flip", i)
		}
		v.Set(i, false)
		if v.Get(i) {
			t.Fatalf("bit %d set after Set(false)", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { New(10).Get(10) },
		func() { New(10).Get(-1) },
		func() { New(10).Set(10, true) },
		func() { New(10).Flip(-1) },
		func() { New(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	cases := []func(){
		func() { a.Hamming(b) },
		func() { a.Xor(b) },
		func() { a.And(b) },
		func() { a.Or(b) },
		func() { a.DiffIndices(b) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestHammingBasic(t *testing.T) {
	a := FromBits([]int{1, 0, 1, 0, 1})
	b := FromBits([]int{1, 1, 0, 0, 1})
	if d := a.Hamming(b); d != 2 {
		t.Fatalf("Hamming = %d, want 2", d)
	}
	if d := a.Hamming(a); d != 0 {
		t.Fatalf("self Hamming = %d, want 0", d)
	}
}

func TestHammingIsMetric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		a, b, c := randVec(r, n), randVec(r, n), randVec(r, n)
		ab, bc, ac := a.Hamming(b), b.Hamming(c), a.Hamming(c)
		if ab != b.Hamming(a) {
			t.Fatal("Hamming not symmetric")
		}
		if ac > ab+bc {
			t.Fatalf("triangle inequality violated: %d > %d + %d", ac, ab, bc)
		}
		if ab == 0 && !a.Equal(b) {
			t.Fatal("zero distance but not equal")
		}
	}
}

func TestHammingEqualsXorCount(t *testing.T) {
	f := func(bitsA, bitsB []bool) bool {
		n := len(bitsA)
		if len(bitsB) < n {
			n = len(bitsB)
		}
		a := FromBools(bitsA[:n])
		b := FromBools(bitsB[:n])
		return a.Hamming(b) == a.Xor(b).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiffIndicesMatchesHamming(t *testing.T) {
	f := func(bitsA, bitsB []bool) bool {
		n := len(bitsA)
		if len(bitsB) < n {
			n = len(bitsB)
		}
		a := FromBools(bitsA[:n])
		b := FromBools(bitsB[:n])
		diff := a.DiffIndices(b)
		if len(diff) != a.Hamming(b) {
			return false
		}
		for _, i := range diff {
			if a.Get(i) == b.Get(i) {
				return false
			}
		}
		// sorted ascending
		for i := 1; i < len(diff); i++ {
			if diff[i] <= diff[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNotMasksTail(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 130} {
		v := New(n)
		nv := v.Not()
		if nv.Count() != n {
			t.Fatalf("Not of zero vector length %d has %d ones", n, nv.Count())
		}
		if nv.Hamming(v) != n {
			t.Fatalf("Not distance = %d, want %d", nv.Hamming(v), n)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromBits([]int{1, 0, 1})
	b := a.Clone()
	b.Flip(0)
	if !a.Get(0) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 10 + r.Intn(200)
		v := randVec(r, n)
		k := 1 + r.Intn(n)
		idx := r.Perm(n)[:k]
		g := v.Gather(idx)
		if g.Len() != k {
			t.Fatalf("Gather length %d, want %d", g.Len(), k)
		}
		for j, i := range idx {
			if g.Get(j) != v.Get(i) {
				t.Fatal("Gather bit mismatch")
			}
		}
		w := New(n)
		w.Scatter(idx, g)
		for j, i := range idx {
			if w.Get(i) != g.Get(j) {
				t.Fatal("Scatter bit mismatch")
			}
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	seen := map[string]Vector{}
	for trial := 0; trial < 500; trial++ {
		v := randVec(r, 100)
		k := v.Key()
		if prev, ok := seen[k]; ok && !prev.Equal(v) {
			t.Fatal("Key collision between different vectors")
		}
		seen[k] = v
	}
	// Same bits, different lengths must differ.
	if New(64).Key() == New(65).Key() {
		t.Fatal("Key ignores length")
	}
}

func TestKeyEqualForEqualVectors(t *testing.T) {
	f := func(bits []bool) bool {
		a := FromBools(bits)
		b := FromBools(bits)
		return a.Key() == b.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnesIndices(t *testing.T) {
	v := New(200)
	want := []int{0, 63, 64, 127, 128, 199}
	for _, i := range want {
		v.Set(i, true)
	}
	got := v.OnesIndices()
	if len(got) != len(want) {
		t.Fatalf("OnesIndices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OnesIndices = %v, want %v", got, want)
		}
	}
}

func TestXorAndOrIdentities(t *testing.T) {
	f := func(bitsA, bitsB []bool) bool {
		n := len(bitsA)
		if len(bitsB) < n {
			n = len(bitsB)
		}
		a := FromBools(bitsA[:n])
		b := FromBools(bitsB[:n])
		// |a∨b| + |a∧b| == |a| + |b|
		if a.Or(b).Count()+a.And(b).Count() != a.Count()+b.Count() {
			return false
		}
		// a⊕b == (a∨b) minus (a∧b)
		if a.Xor(b).Count() != a.Or(b).Count()-a.And(b).Count() {
			return false
		}
		// a⊕a == 0
		return a.Xor(a).Count() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringTruncation(t *testing.T) {
	v := New(300)
	s := v.String()
	if len(s) == 0 {
		t.Fatal("empty String for non-empty vector")
	}
	short := New(4)
	short.Set(2, true)
	if short.String() != "0010" {
		t.Fatalf("String = %q, want 0010", short.String())
	}
}

// TestWordOps covers the word-level accessors the bulk probe and board
// tally paths are built on: Word/SetWord round-trips, tail masking,
// and WordMask shapes.
func TestWordOps(t *testing.T) {
	v := New(130) // three words, 2-bit tail
	if v.Words() != 3 {
		t.Fatalf("Words() = %d, want 3", v.Words())
	}
	v.SetWord(0, 0xDEADBEEF)
	if v.Word(0) != 0xDEADBEEF {
		t.Fatalf("Word(0) = %#x", v.Word(0))
	}
	v.SetWord(2, ^uint64(0)) // must mask to the 2 valid tail bits
	if v.Word(2) != 0b11 {
		t.Fatalf("tail word = %#x, want 0b11", v.Word(2))
	}
	if v.Count() != bitsOn(0xDEADBEEF)+2 {
		t.Fatalf("Count = %d after SetWord", v.Count())
	}
	if v.WordMask(0) != ^uint64(0) || v.WordMask(2) != 0b11 {
		t.Fatalf("WordMask = %#x, %#x", v.WordMask(0), v.WordMask(2))
	}
	// Bit-level and word-level views agree.
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) != (v.Word(i/64)&(1<<(uint(i)%64)) != 0) {
			t.Fatalf("bit %d disagrees with its word", i)
		}
	}
	full := New(64)
	if full.WordMask(0) != ^uint64(0) {
		t.Fatalf("full word mask = %#x", full.WordMask(0))
	}
}

func bitsOn(x uint64) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// TestFirstDiff pins FirstDiff against DiffIndices on random vectors.
func TestFirstDiff(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(200)
		a, b := randVec(r, n), randVec(r, n)
		want := -1
		if d := a.DiffIndices(b); len(d) > 0 {
			want = d[0]
		}
		if got := a.FirstDiff(b); got != want {
			t.Fatalf("FirstDiff = %d, want %d", got, want)
		}
	}
	if New(70).FirstDiff(New(70)) != -1 {
		t.Fatal("FirstDiff of equal vectors != -1")
	}
}

// TestAndCountAndOnesInto pins the allocation-free AND reductions against
// their materializing equivalents on random vectors, including partial
// final words and length-0 vectors.
func TestAndCountAndOnesInto(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(200)
		a, b := randVec(r, n), randVec(r, n)
		and := a.And(b)
		if got, want := a.AndCount(b), and.Count(); got != want {
			t.Fatalf("n=%d: AndCount = %d, want %d", n, got, want)
		}
		want := and.OnesIndices()
		got := a.AndOnesInto(b, nil)
		if len(got) != len(want) {
			t.Fatalf("n=%d: AndOnesInto found %d positions, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: AndOnesInto[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
		// Appending semantics: existing dst entries are preserved.
		dst := []int{-7}
		dst = a.AndOnesInto(b, dst)
		if dst[0] != -7 || len(dst) != 1+len(want) {
			t.Fatalf("n=%d: AndOnesInto did not append (len %d)", n, len(dst))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AndCount length mismatch did not panic")
		}
	}()
	New(10).AndCount(New(11))
}

// TestAndReductionsAllocFree: the live-degree scan of the cluster peel
// calls these once per candidate per round; they must never allocate
// (AndOnesInto with sufficient dst capacity included).
func TestAndReductionsAllocFree(t *testing.T) {
	a, b := New(1024), New(1024)
	for i := 0; i < 1024; i += 3 {
		a.Set(i, true)
	}
	for i := 0; i < 1024; i += 5 {
		b.Set(i, true)
	}
	dst := make([]int, 0, 1024)
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		sink = a.AndCount(b)
		dst = a.AndOnesInto(b, dst[:0])
	}); n != 0 {
		t.Fatalf("AND reductions allocate %v times per run", n)
	}
	_ = sink
}

// TestSameStorage: clones never share storage, assignments always do, and
// empty vectors never report sharing.
func TestSameStorage(t *testing.T) {
	v := New(100)
	if !SameStorage(v, v) {
		t.Fatal("vector does not share storage with itself")
	}
	w := v
	if !SameStorage(v, w) {
		t.Fatal("assigned copy does not share storage")
	}
	if SameStorage(v, v.Clone()) {
		t.Fatal("clone shares storage")
	}
	if SameStorage(New(0), New(0)) {
		t.Fatal("empty vectors report sharing")
	}
}

// TestWordOpsAllocFree: the word-level accessors on the bulk probe and
// tally hot paths must never allocate (satellite regression guard).
func TestWordOpsAllocFree(t *testing.T) {
	a, b := New(1024), New(1024)
	b.Set(777, true)
	var sink uint64
	var sinkI int
	if n := testing.AllocsPerRun(100, func() {
		sink = a.Word(3)
		a.SetWord(3, sink|0xFF)
		sink = a.WordMask(15)
		sinkI = a.FirstDiff(b)
		sinkI += a.Hamming(b)
	}); n != 0 {
		t.Fatalf("word ops allocate %v times per run", n)
	}
	_ = sink
	_ = sinkI
}

func TestZeroCopyFromRenew(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 64, 99, 129} {
		v.Set(i, true)
	}
	w := New(130)
	w.CopyFrom(v)
	if !w.Equal(v) {
		t.Fatal("CopyFrom did not copy")
	}
	w.Set(5, true)
	if v.Get(5) {
		t.Fatal("CopyFrom shares storage")
	}
	v.Zero()
	if v.Count() != 0 {
		t.Fatalf("Zero left %d bits set", v.Count())
	}

}

func TestCopyFromLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10).CopyFrom(New(11))
}
