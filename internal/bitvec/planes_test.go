package bitvec

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestPlaneBits(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 5: 3, 7: 3, 8: 4, 10: 4, 100: 7}
	for scale, want := range cases {
		if got := PlaneBits(scale); got != want {
			t.Fatalf("PlaneBits(%d) = %d, want %d", scale, got, want)
		}
	}
}

func TestPlanesSetGetRoundTrip(t *testing.T) {
	const n, scale = 131, 10 // non-word-multiple length, k = 4
	pl := PlanesForScale(n, scale)
	vals := make([]int, n)
	for i := 0; i < n; i++ {
		v := (i * 7) % (scale + 1)
		vals[i] = v
		pl.Set(i, v)
	}
	for i, want := range vals {
		if got := pl.Get(i); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
	// Overwriting (including clearing high bits) must round-trip too.
	pl.Set(5, 0)
	if pl.Get(5) != 0 {
		t.Fatal("Set(5, 0) did not clear all planes")
	}
	got := pl.Ints()
	vals[5] = 0
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("Ints()[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
}

// TestPlanesIntsMatchesGet pins the word-level decode against a Get loop
// across word and byte-group boundaries (lengths 0, 1, 63, 64, 65, 130)
// and plane counts 1, 3, 8, 9 and 32 (both sides of the 8-plane byte-lane
// path), with AppendInts keeping whatever dst already holds.
func TestPlanesIntsMatchesGet(t *testing.T) {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		for _, k := range []int{1, 3, 8, 9, 32} {
			pl := NewPlanes(n, k)
			want := []int{-7, -8}
			for i := 0; i < n; i++ {
				v := int(next() & (1<<k - 1))
				if i%5 == 0 {
					v = 1<<k - 1 // every plane set
				}
				pl.Set(i, v)
			}
			for i := 0; i < n; i++ {
				want = append(want, pl.Get(i))
			}
			got := pl.AppendInts([]int{-7, -8})
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: AppendInts = %v, want %v", n, k, got, want)
			}
			if ints := pl.Ints(); !slices.Equal(ints, want[2:]) || len(ints) != n {
				t.Fatalf("n=%d k=%d: Ints = %v, want %v", n, k, ints, want[2:])
			}
		}
	}
}

// scalarL1 is the per-element reference the bit-sliced L1 is checked
// against.
func scalarL1(a, b []int) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}

// TestPlanesL1MatchesScalar: the word-parallel bit-sliced L1 equals the
// per-element reference on random inputs across scales (plane counts 1–7)
// and lengths straddling word boundaries.
func TestPlanesL1MatchesScalar(t *testing.T) {
	f := func(xa, xb []uint16, scaleSel uint8, lenSel uint8) bool {
		scales := []int{1, 2, 3, 5, 10, 31, 100}
		scale := scales[int(scaleSel)%len(scales)]
		n := len(xa)
		if len(xb) < n {
			n = len(xb)
		}
		// Stretch some cases past one word even with short quick inputs.
		n += int(lenSel) % 3 * 64
		a, b := make([]int, n), make([]int, n)
		for i := 0; i < n; i++ {
			var ra, rb uint16
			if i < len(xa) {
				ra = xa[i]
			} else {
				ra = uint16(i * 31)
			}
			if i < len(xb) {
				rb = xb[i]
			} else {
				rb = uint16(i * 17)
			}
			a[i], b[i] = int(ra)%(scale+1), int(rb)%(scale+1)
		}
		pa, pb := FromInts(a, scale), FromInts(b, scale)
		return pa.L1(pb) == scalarL1(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPlanesL1WithinMatchesL1: the early-exit kernel answers exactly
// L1(b) ≤ limit, on random rows over k = 1..5 planes, lengths that are and
// are not multiples of 64, and limits on both sides of the distance.
func TestPlanesL1WithinMatchesL1(t *testing.T) {
	lengths := []int{0, 1, 63, 64, 65, 128, 130, 200, 256}
	f := func(seed uint64, kSel, lenSel uint8) bool {
		k := 1 + int(kSel)%5
		n := lengths[int(lenSel)%len(lengths)]
		scale := 1<<k - 1
		a, b := NewPlanes(n, k), NewPlanes(n, k)
		for i := 0; i < n; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			a.Set(i, int(seed>>33)%(scale+1))
			b.Set(i, int(seed>>13)%(scale+1))
		}
		d := a.L1(b)
		for _, lim := range []int{-1, 0, d - 1, d, d + 1} {
			if a.L1Within(b, lim) != (d <= lim) || b.L1Within(a, lim) != (d <= lim) {
				t.Logf("k=%d n=%d L1=%d limit=%d: L1Within = %v", k, n, d, lim, a.L1Within(b, lim))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanesMaskedL1MatchesScalar: MaskedL1 is the per-value distance
// summed over the masked positions alone, on random rows over k = 1..5
// planes, lengths that are and are not multiples of 64, and empty, full
// and random masks; a mask of the wrong length panics.
func TestPlanesMaskedL1MatchesScalar(t *testing.T) {
	lengths := []int{0, 1, 63, 64, 65, 128, 130, 200, 256}
	f := func(seed uint64, kSel, lenSel, maskSel uint8) bool {
		k := 1 + int(kSel)%5
		n := lengths[int(lenSel)%len(lengths)]
		a, b := randomPlanes(n, k, seed), randomPlanes(n, k, ^seed)
		mask := make([]uint64, a.Stride())
		for wi := range mask {
			seed = seed*6364136223846793005 + 1442695040888963407
			mask[wi] = [...]uint64{0, ^uint64(0), seed, seed & (seed >> 7)}[maskSel%4]
		}
		ref := 0
		for i := 0; i < n; i++ {
			if mask[i/64]>>(uint(i)%64)&1 == 1 {
				d := a.Get(i) - b.Get(i)
				ref += max(d, -d)
			}
		}
		if got := a.MaskedL1(b, mask); got != ref {
			t.Logf("k=%d n=%d: MaskedL1 = %d, reference %d", k, n, got, ref)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MaskedL1 accepted a 1-word mask for 2-word planes")
		}
	}()
	NewPlanes(100, 3).MaskedL1(NewPlanes(100, 3), make([]uint64, 1))
}

func TestPlanesL1SelfAndPanic(t *testing.T) {
	pl := FromInts([]int{1, 4, 2, 0, 5}, 5)
	if pl.L1(pl) != 0 {
		t.Fatal("self distance nonzero")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	pl.L1(NewPlanes(5, 2))
}

func TestPlanesGather(t *testing.T) {
	pl := FromInts([]int{9, 1, 4, 7, 0, 3}, 10)
	g := pl.Gather([]int{3, 0, 5})
	want := []int{7, 9, 3}
	for j, w := range want {
		if g.Get(j) != w {
			t.Fatalf("Gather[%d] = %d, want %d", j, g.Get(j), w)
		}
	}
}

func TestPlanesCloneRenewCopy(t *testing.T) {
	pl := FromInts([]int{1, 2, 3}, 3)
	cl := pl.Clone()
	cl.Set(0, 0)
	if pl.Get(0) != 1 {
		t.Fatal("Clone shares storage")
	}
	if SamePlaneStorage(pl, cl) {
		t.Fatal("SamePlaneStorage false positive")
	}
	cp := NewPlanes(3, 2)
	cp.CopyFrom(pl)
	if !cp.Equal(pl) {
		t.Fatal("CopyFrom not equal")
	}
	if cp.Equal(NewPlanes(3, 3)) || cp.Equal(NewPlanes(4, 2)) {
		t.Fatal("Equal ignores the shape")
	}
	for name, f := range map[string]func(){
		"CopyFrom shape mismatch": func() { cp.CopyFrom(NewPlanes(3, 3)) },
		"NewPlanes zero planes":   func() { NewPlanes(3, 0) },
		"NewPlanes too many":      func() { NewPlanes(3, MaxPlaneBits+1) },
		"NewPlanes negative":      func() { NewPlanes(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}

}

func TestPlanesWordLevelAccess(t *testing.T) {
	const n, scale = 70, 5
	pl := PlanesForScale(n, scale)
	// Set via plane words, read back per element.
	pl.SetPlaneWord(0, 1, ^uint64(0)) // bits 64..69 valid only
	for i := 64; i < n; i++ {
		if pl.Get(i) != 1 {
			t.Fatalf("word write missing at %d", i)
		}
	}
	if pl.PlaneWord(0, 1) != pl.WordMask(1) {
		t.Fatal("tail mask not applied")
	}
	if pl.Stride() != 2 {
		t.Fatalf("stride %d", pl.Stride())
	}
}

// TestPlanesPlaneView: Plane(ℓ) is plane ℓ's bits as a Vector over the
// same storage, and an out-of-range plane panics.
func TestPlanesPlaneView(t *testing.T) {
	const n, scale = 70, 5
	pl := PlanesForScale(n, scale)
	for i := 0; i < n; i++ {
		pl.Set(i, i%(scale+1))
	}
	for l := 0; l < pl.Bits(); l++ {
		v := pl.Plane(l)
		if v.Len() != n {
			t.Fatalf("plane %d has length %d", l, v.Len())
		}
		for i := 0; i < n; i++ {
			if v.Get(i) != (pl.Get(i)>>l&1 == 1) {
				t.Fatalf("plane %d bit %d differs", l, i)
			}
		}
	}
	pl.Plane(1).Set(0, true)
	if pl.Get(0) != 2 {
		t.Fatalf("write through the view: value %d, want 2", pl.Get(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("plane past Bits did not panic")
		}
	}()
	pl.Plane(pl.Bits())
}

func TestAtomicTestAndSet(t *testing.T) {
	a := NewAtomic(130)
	if a.TestAndSet(129) {
		t.Fatal("fresh bit reported set")
	}
	if !a.TestAndSet(129) {
		t.Fatal("second set reported new")
	}
	if !a.Get(129) || a.Get(0) {
		t.Fatal("Get wrong")
	}
	if a.Count() != 1 {
		t.Fatalf("count %d", a.Count())
	}
	a.Reset()
	if a.Count() != 0 {
		t.Fatal("Reset left bits")
	}
}

func TestAtomicOrWord(t *testing.T) {
	a := NewAtomic(128)
	if nb := a.OrWord(1, 0b1011); nb != 0b1011 {
		t.Fatalf("first OrWord new bits %b", nb)
	}
	if nb := a.OrWord(1, 0b1110); nb != 0b0100 {
		t.Fatalf("overlapping OrWord new bits %b", nb)
	}
	if nb := a.OrWord(1, 0b1111); nb != 0 {
		t.Fatalf("no-op OrWord new bits %b", nb)
	}
}

// TestAtomicConcurrentExactlyOnce: under concurrent contention every bit is
// reported new exactly once, whichever path (TestAndSet or OrWord) wins.
func TestAtomicConcurrentExactlyOnce(t *testing.T) {
	const n, workers = 1024, 8
	a := NewAtomic(n)
	var total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < n; i++ {
				if w%2 == 0 {
					if !a.TestAndSet(i) {
						local++
					}
				} else if i%64 == 0 {
					local += int64(popcount(a.OrWord(i/64, ^uint64(0))))
				}
			}
			mu.Lock()
			total += local
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if total != n {
		t.Fatalf("charged %d bits, want %d", total, n)
	}
	if a.Count() != n {
		t.Fatalf("count %d, want %d", a.Count(), n)
	}
}

func popcount(x uint64) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// TestPlanesSubFrom: the word-parallel broadcast c − v matches the scalar
// reference and panics on underflow.
func TestPlanesSubFrom(t *testing.T) {
	vals := make([]int, 131)
	for i := range vals {
		vals[i] = (i * 5) % 8
	}
	pl := FromInts(vals, 9)
	mir := pl.SubFrom(9)
	for i, v := range vals {
		if mir.Get(i) != 9-v {
			t.Fatalf("SubFrom(9)[%d] = %d, want %d", i, mir.Get(i), 9-v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected underflow panic")
		}
	}()
	pl.SubFrom(3) // values up to 7 exceed the minuend
}

// BenchmarkPlanesInts decodes one rating row in the rating protocol's
// shape: 2048 values on a 0..5 scale (k = 3 planes).
func BenchmarkPlanesInts(b *testing.B) {
	pl := NewPlanes(2048, 3)
	for i := 0; i < pl.Len(); i++ {
		pl.Set(i, i*5%8)
	}
	dst := make([]int, 0, pl.Len())
	for b.Loop() {
		dst = pl.AppendInts(dst[:0])
	}
}

// TestPlanesL1WideMatchesScalar: values wider than narrowPlanes bits take
// the scratch-free kernel; L1, L1Within and MaskedL1 there match the
// per-value distance on random rows, with random masks, at k = 8 (the
// widest narrow kernel) and k ∈ {9, 16, 32}.
func TestPlanesL1WideMatchesScalar(t *testing.T) {
	for _, k := range []int{narrowPlanes, 9, 16, 32} {
		for _, n := range []int{0, 1, 64, 130, 200} {
			seed := uint64(k*1000 + n)
			a, b := randomPlanes(n, k, seed), randomPlanes(n, k, ^seed)
			mask := randomPlanes(n, 1, seed+1).words
			ref, masked := 0, 0
			for i := 0; i < n; i++ {
				d := a.Get(i) - b.Get(i)
				ref += max(d, -d)
				if mask[i/64]>>(uint(i)%64)&1 == 1 {
					masked += max(d, -d)
				}
			}
			if got := a.L1(b); got != ref {
				t.Fatalf("k=%d n=%d: L1 = %d, reference %d", k, n, got, ref)
			}
			if got := a.MaskedL1(b, mask); got != masked {
				t.Fatalf("k=%d n=%d: MaskedL1 = %d, reference %d", k, n, got, masked)
			}
			for _, lim := range []int{-1, 0, ref - 1, ref, ref + 1} {
				if a.L1Within(b, lim) != (ref <= lim) {
					t.Fatalf("k=%d n=%d: L1Within(%d) disagrees with distance %d", k, n, lim, ref)
				}
			}
		}
	}
}

// TestPlanesIn: a Planes carved out of a caller's buffer reads and writes
// the buffer's first k·stride words and nothing past them, and a buffer
// too short for the shape panics.
func TestPlanesIn(t *testing.T) {
	buf := make([]uint64, 3*2+1)
	pl := PlanesIn(buf, 100, 3)
	pl.Set(99, 5)
	if buf[1] != 1<<35 || buf[3] != 0 || buf[5] != 1<<35 || buf[6] != 0 {
		t.Fatalf("Set(99, 5) wrote %#x", buf)
	}
	if pl.Stride() != 2 || pl.Get(99) != 5 || cap(pl.words) != 6 {
		t.Fatalf("stride %d, value %d, capacity %d", pl.Stride(), pl.Get(99), cap(pl.words))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PlanesIn accepted 5 words for 3 planes of 100 values")
		}
	}()
	PlanesIn(buf[:5], 100, 3)
}
