package xrand

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	root := New(7)
	a := root.Split(1, 2, 3)
	b := root.Split(1, 2, 3)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-tag splits differ")
		}
	}
}

func TestSplitIndependent(t *testing.T) {
	root := New(7)
	a := root.Split(1)
	b := root.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different-tag splits", same)
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	a.Split(1)
	a.Split(2, 3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("value %d count %d too far from expected %.0f", v, c, want)
		}
	}
}

// mul128 is the 32-bit-limb 64×64→128 multiply Intn used before
// math/bits.Mul64, kept as the oracle for it.
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	ah, al := a>>32, a&mask
	bh, bl := b>>32, b&mask
	t := ah*bl + (al*bl)>>32
	lo = a * b
	hi = ah*bh + (t >> 32) + ((t&mask + al*bh) >> 32)
	return hi, lo
}

// TestMul64MatchesLimbOracle: bits.Mul64 computes the same 128-bit
// product as the limb formula, on random operands and on the edge bounds.
func TestMul64MatchesLimbOracle(t *testing.T) {
	same := func(a, b uint64) bool {
		hi, lo := bits.Mul64(a, b)
		ohi, olo := mul128(a, b)
		return hi == ohi && lo == olo
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	edges := []uint64{0, 1, 2, 3, 1<<32 - 1, 1 << 32, 1 << 63, 1<<63 + 1, 1<<64 - 1}
	for _, a := range edges {
		for _, b := range edges {
			if !same(a, b) {
				t.Fatalf("Mul64(%#x, %#x) differs from the limb oracle", a, b)
			}
		}
	}
}

// TestIntnPinnedDraws: Intn's draws for fixed seeds are the ones the
// limb-multiply implementation produced, so every seeded run reproduces.
func TestIntnPinnedDraws(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 1000, 1 << 40, 1<<62 + 12345, 1<<63 - 1}
	want := map[uint64][]int{
		1:    {0, 0, 0, 0, 1, 1, 1, 0, 2, 2, 4, 3, 530, 435, 167, 709552940727, 896487447127, 749542544944, 4078227225428362214, 304187700502226175, 2286842639562390492, 1135479065272746837, 2646290167137393871, 441810430377843579},
		2010: {0, 0, 0, 0, 1, 1, 1, 0, 1, 2, 5, 6, 383, 989, 936, 428864443414, 857538156142, 1018056185036, 2929111104641870761, 1670559014568316794, 4260006570967619099, 9148931803200493751, 777473911201968446, 4213260815575387341},
	}
	for seed, w := range want {
		s := New(seed)
		var got []int
		for _, n := range bounds {
			for i := 0; i < 3; i++ {
				got = append(got, s.Intn(n))
			}
		}
		if !slices.Equal(got, w) {
			t.Fatalf("seed %d: Intn draws %v, want %v", seed, got, w)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(13)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(17)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(19)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli rate = %v, want ≈%v", rate, p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	for _, n := range []int{0, 1, 5, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinctSorted(t *testing.T) {
	s := New(29)
	for trial := 0; trial < 100; trial++ {
		n := 10 + s.Intn(100)
		k := 1 + s.Intn(n)
		out := s.Sample(n, k)
		if len(out) != k {
			t.Fatalf("Sample(%d,%d) returned %d elements", n, k, len(out))
		}
		for i, v := range out {
			if v < 0 || v >= n {
				t.Fatalf("sample element %d out of range", v)
			}
			if i > 0 && out[i] <= out[i-1] {
				t.Fatal("sample not sorted/distinct")
			}
		}
	}
}

func TestSampleWholeRange(t *testing.T) {
	s := New(31)
	out := s.Sample(5, 10)
	if len(out) != 5 {
		t.Fatalf("Sample(5,10) = %v", out)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("Sample(5,10) = %v, want identity", out)
		}
	}
	if s.Sample(5, 0) != nil {
		t.Fatal("Sample(n,0) should be nil")
	}
}

func TestSampleFrom(t *testing.T) {
	s := New(37)
	set := []int{10, 20, 30, 40, 50}
	out := s.SampleFrom(set, 3)
	if len(out) != 3 {
		t.Fatalf("SampleFrom returned %d elements", len(out))
	}
	valid := map[int]bool{10: true, 20: true, 30: true, 40: true, 50: true}
	seen := map[int]bool{}
	for _, v := range out {
		if !valid[v] || seen[v] {
			t.Fatalf("SampleFrom produced invalid/duplicate %d", v)
		}
		seen[v] = true
	}
	all := s.SampleFrom(set, 99)
	if len(all) != len(set) {
		t.Fatal("SampleFrom with k>len should copy all")
	}
}

func TestBernoulliSubsetRate(t *testing.T) {
	s := New(41)
	const n = 10000
	const p = 0.05
	out := s.BernoulliSubset(n, p)
	want := float64(n) * p
	if math.Abs(float64(len(out))-want) > 5*math.Sqrt(want) {
		t.Fatalf("BernoulliSubset size %d, want ≈%.0f", len(out), want)
	}
	for i, v := range out {
		if v < 0 || v >= n {
			t.Fatalf("element %d out of range", v)
		}
		if i > 0 && out[i] <= out[i-1] {
			t.Fatal("subset not sorted/distinct")
		}
	}
}

func TestBernoulliSubsetEdges(t *testing.T) {
	s := New(43)
	if out := s.BernoulliSubset(100, 0); out != nil {
		t.Fatal("p=0 should give empty subset")
	}
	out := s.BernoulliSubset(100, 1)
	if len(out) != 100 {
		t.Fatalf("p=1 should give everything, got %d", len(out))
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(47)
	z := NewZipf(s, 10, 1.5)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := z.Draw()
		if v < 0 || v >= 10 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[9] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[9]=%d", counts[0], counts[9])
	}
	if counts[0] <= counts[1] {
		t.Fatalf("Zipf rank order violated: counts[0]=%d counts[1]=%d", counts[0], counts[1])
	}
}

// TestSplitValueMatchesSplit: the value-type split must derive exactly the
// stream Split does for the same tags — protocol code mixes the two freely
// (heap streams at phase granularity, stack streams per hot-loop cell).
func TestSplitValueMatchesSplit(t *testing.T) {
	parent := New(1234)
	cases := [][]uint64{{}, {0}, {7}, {1, 2, 3}, {0xC0FFEE, 42}}
	for _, tags := range cases {
		byPtr := parent.Split(tags...)
		byVal := parent.SplitValue(tags...)
		for i := 0; i < 50; i++ {
			if byPtr.Uint64() != byVal.Uint64() {
				t.Fatalf("tags %v: SplitValue diverges from Split at draw %d", tags, i)
			}
		}
	}
}

// TestSplitValueIsPureRead: splitting must not advance the parent.
func TestSplitValueIsPureRead(t *testing.T) {
	a, b := New(9), New(9)
	a.SplitValue(1, 2)
	a.SplitValue(3)
	for i := 0; i < 20; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SplitValue advanced the parent stream")
		}
	}
}

// TestSplitValueAllocFree guards the workshare's per-(cluster, object)
// stream derivation: a stack-local child stream must cost zero heap
// allocations (satellite regression guard).
func TestSplitValueAllocFree(t *testing.T) {
	parent := New(77)
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		rng := parent.SplitValue(1, 2)
		sink += rng.Uint64()
		sink += uint64(rng.Intn(17))
	}); n != 0 {
		t.Fatalf("SplitValue path allocates %v times per run", n)
	}
	_ = sink
}

func TestAtMatchesSequentialUint64(t *testing.T) {
	ref := New(2010)
	s := New(2010)
	for i := 0; i < 1000; i++ {
		want := ref.Uint64()
		if got := s.At(uint64(i)); got != want {
			t.Fatalf("At(%d) = %#x, want sequential draw %#x", i, got, want)
		}
	}
	// At never advanced s: its next sequential draw is still draw 0.
	ref0 := New(2010)
	if s.Uint64() != ref0.Uint64() {
		t.Fatal("At advanced the stream")
	}
}

func TestAtIsPureRead(t *testing.T) {
	s := New(7)
	a := s.At(13)
	b := s.At(13)
	if a != b {
		t.Fatalf("repeated At(13) disagreed: %#x vs %#x", a, b)
	}
}

func TestAtRandomAccessProperty(t *testing.T) {
	// Property: for arbitrary (seed, index), At(i) equals the value of the
	// (i+1)-th sequential Uint64 draw — checked by quick-style random trials
	// over seeds and indices (indices bounded so the sequential replay stays
	// cheap).
	meta := New(0xA7)
	for trial := 0; trial < 200; trial++ {
		seed := meta.Uint64()
		i := meta.Intn(4096)
		s := New(seed)
		got := s.At(uint64(i))
		ref := New(seed)
		var want uint64
		for k := 0; k <= i; k++ {
			want = ref.Uint64()
		}
		if got != want {
			t.Fatalf("seed %#x: At(%d) = %#x, want %#x", seed, i, got, want)
		}
	}
}

func TestSkipMatchesSequentialDraws(t *testing.T) {
	for _, k := range []int{0, 1, 2, 63, 64, 1000} {
		a := New(99)
		b := New(99)
		for i := 0; i < k; i++ {
			a.Uint64()
		}
		b.Skip(uint64(k))
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				t.Fatalf("Skip(%d) diverged from %d sequential draws at draw %d", k, k, i)
			}
		}
	}
}

func TestSkipComposes(t *testing.T) {
	a := New(5)
	b := New(5)
	a.Skip(17)
	a.Skip(25)
	b.Skip(42)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Skip(17)+Skip(25) != Skip(42)")
	}
}

func TestSkipThenAtConsistency(t *testing.T) {
	s := New(123)
	want := s.At(10)
	s.Skip(10)
	if got := s.At(0); got != want {
		t.Fatalf("after Skip(10), At(0) = %#x, want pre-skip At(10) = %#x", got, want)
	}
	if got := s.Uint64(); got != want {
		t.Fatalf("after Skip(10), Uint64() = %#x, want %#x", got, want)
	}
}

func TestCloneDivergesFromOriginalPosition(t *testing.T) {
	s := New(88)
	s.Uint64()
	c := s.Clone()
	if c.Uint64() != s.Uint64() {
		t.Fatal("clone's next draw differs from original's")
	}
	// Advancing the clone does not advance the original.
	c.Skip(100)
	s2 := New(88)
	s2.Skip(2)
	if s.Uint64() != s2.Uint64() {
		t.Fatal("advancing the clone advanced the original")
	}
}

// TestSampleBitsMatchesSample: the bitmap Floyd draws the same set as
// Sample from the same coins, leaving the stream at the same next draw,
// for n up to 300 and k ∈ {1, n/2, n−1}, plus k = 0, k = n and k > n (all
// of [0,n), no draw); it clears the bitmap it is handed and sets no bit at
// or past n in the ⌈n/64⌉ words it owns.
func TestSampleBitsMatchesSample(t *testing.T) {
	dst := make([]uint64, 5)
	for n := 0; n <= 300; n++ {
		for _, k := range []int{1, n / 2, n - 1, 0, n, n + 3} {
			a := New(uint64(n*1000 + k))
			b := a.Clone()
			want := a.Sample(n, k)
			for i := range dst {
				dst[i] = ^uint64(0)
			}
			b.SampleBits(n, k, dst)
			var got []int
			for t := 0; t < (n+63)/64*64; t++ {
				if dst[t/64]>>(uint(t)%64)&1 == 1 {
					got = append(got, t)
				}
			}
			if len(got) != len(want) || (len(got) > 0 && !slices.Equal(got, want)) {
				t.Fatalf("n=%d k=%d: SampleBits %v, Sample %v", n, k, got, want)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d k=%d: next draw differs", n, k)
			}
		}
	}
}

// FuzzSampleBits: the bitmap Floyd equals Sample draw for draw — the same
// set and the same next Uint64 — for n ∈ [0, 4096] and any k, negative k
// and k > n included.
func FuzzSampleBits(f *testing.F) {
	f.Add(uint64(1), uint16(16), int16(10))
	f.Add(uint64(2), uint16(2048), int16(56))
	f.Add(uint64(3), uint16(0), int16(0))
	f.Add(uint64(4), uint16(64), int16(-3))
	f.Add(uint64(5), uint16(100), int16(300))
	f.Fuzz(func(t *testing.T, seed uint64, nSel uint16, k16 int16) {
		n, k := int(nSel)%4097, int(k16)
		a := New(seed)
		b := a.Clone()
		want := a.Sample(n, k)
		dst := make([]uint64, (n+63)/64)
		for i := range dst {
			dst[i] = ^uint64(0)
		}
		b.SampleBits(n, k, dst)
		var got []int
		for wi, x := range dst {
			for ; x != 0; x &= x - 1 {
				got = append(got, wi*64+bits.TrailingZeros64(x))
			}
		}
		if len(got) != len(want) || (len(got) > 0 && !slices.Equal(got, want)) {
			t.Fatalf("n=%d k=%d: SampleBits %v, Sample %v", n, k, got, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d k=%d: next draw differs", n, k)
		}
	})
}

// TestLemire: the shared rejection step accepts and maps like Lemire's
// method. A draw of 0 lands on product 0, below 2⁶⁴ mod bound for any
// bound that is not a power of two, so it is rejected; for a power of two
// nothing is rejected and the value is the draw's top bits.
func TestLemire(t *testing.T) {
	for _, bound := range []uint64{3, 5, 6, 1000, 1<<40 + 1} {
		if _, ok := lemire(0, bound); ok {
			t.Errorf("lemire(0, %d) accepted; 2⁶⁴ mod %d = %d", bound, bound, -bound%bound)
		}
	}
	for _, bound := range []uint64{1, 2, 64, 1 << 40} {
		for _, x := range []uint64{0, 1, 1 << 63, ^uint64(0)} {
			v, ok := lemire(x, bound)
			if want, _ := bits.Mul64(x, bound); !ok || v != want {
				t.Errorf("lemire(%#x, %d) = %d, %v; want %d, accepted", x, bound, v, ok, want)
			}
		}
	}
	// An accepted draw maps to hi(x·bound) < bound.
	if v, ok := lemire(^uint64(0), 3); !ok || v != 2 {
		t.Errorf("lemire(2⁶⁴−1, 3) = %d, %v; want 2, accepted", v, ok)
	}
	// Intn skips a rejected draw and returns the next accepted one. For
	// bound 2⁶²+1 a quarter of all draws are rejected (2⁶⁴ mod bound is
	// 2⁶²−3), so a stream soon reaches one.
	const big = 1<<62 + 1
	s := New(0)
	for i := 0; ; i++ {
		if _, ok := lemire(s.At(0), big); !ok {
			break
		}
		s.Skip(1)
		if i > 1000 {
			t.Fatal("no rejected draw in 1000 for bound 2⁶²+1")
		}
	}
	next, ok := lemire(s.At(1), big)
	if got := s.Intn(big); !ok || uint64(got) != next {
		t.Errorf("Intn(2⁶²+1) = %d after a rejected draw, want %d from the draw after it", got, next)
	}
}
