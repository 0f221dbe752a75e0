package bitvec

import (
	"testing"
)

// bytesToVec builds a vector from fuzzer bytes (one bit per byte LSB).
func bytesToVec(data []byte) Vector {
	v := New(len(data))
	for i, b := range data {
		if b&1 == 1 {
			v.Set(i, true)
		}
	}
	return v
}

// FuzzHammingIdentities cross-checks the word-parallel Hamming path against
// a bit-by-bit reference, plus the XOR/Count identity, on arbitrary inputs.
func FuzzHammingIdentities(f *testing.F) {
	f.Add([]byte{1, 0, 1}, []byte{0, 0, 1})
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, 64), make([]byte, 200))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		x := bytesToVec(a[:n])
		y := bytesToVec(b[:n])
		// Bit-by-bit reference.
		ref := 0
		for i := 0; i < n; i++ {
			if x.Get(i) != y.Get(i) {
				ref++
			}
		}
		if got := x.Hamming(y); got != ref {
			t.Fatalf("Hamming = %d, reference %d", got, ref)
		}
		if got := x.Xor(y).Count(); got != ref {
			t.Fatalf("Xor.Count = %d, reference %d", got, ref)
		}
		if len(x.DiffIndices(y)) != ref {
			t.Fatal("DiffIndices length mismatch")
		}
	})
}

// bytesToPlanes builds k-plane values from fuzzer bytes, one byte per
// value masked into [0, 2ᵏ).
func bytesToPlanes(data []byte, k int) Planes {
	pl := NewPlanes(len(data), k)
	for i, b := range data {
		pl.Set(i, int(b)&(1<<k-1))
	}
	return pl
}

// FuzzPlanesL1Within cross-checks the bit-sliced L1 against a per-value
// reference, and the early-exit L1Within against L1 at limits on both sides
// of the distance, on arbitrary values and k = 1..8 planes.
func FuzzPlanesL1Within(f *testing.F) {
	f.Add([]byte{1, 5, 3}, []byte{4, 0, 3}, uint8(3))
	f.Add([]byte{}, []byte{}, uint8(1))
	f.Add(make([]byte, 64), make([]byte, 130), uint8(2))
	f.Add([]byte{255, 0, 128, 7, 9, 200, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
		1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9},
		make([]byte, 70), uint8(8))
	f.Fuzz(func(t *testing.T, a, b []byte, kSel uint8) {
		k := 1 + int(kSel)%8
		n := min(len(a), len(b))
		x, y := bytesToPlanes(a[:n], k), bytesToPlanes(b[:n], k)
		ref := 0
		for i := 0; i < n; i++ {
			d := x.Get(i) - y.Get(i)
			ref += max(d, -d)
		}
		if got := x.L1(y); got != ref {
			t.Fatalf("L1 = %d, reference %d", got, ref)
		}
		for _, lim := range []int{-1, 0, ref - 1, ref, ref + 1} {
			if x.L1Within(y, lim) != (ref <= lim) {
				t.Fatalf("L1Within(%d) = %v, reference distance %d", lim, !(ref <= lim), ref)
			}
		}
	})
}

// FuzzKeyRoundTrip checks that Key is injective on (bits, length) pairs the
// fuzzer can construct.
func FuzzKeyRoundTrip(f *testing.F) {
	f.Add([]byte{1}, []byte{0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		x := bytesToVec(a)
		y := bytesToVec(b)
		if (x.Key() == y.Key()) != x.Equal(y) {
			t.Fatalf("Key collision/divergence: equal=%v", x.Equal(y))
		}
	})
}

// FuzzGatherScatter checks the subset round trip on arbitrary index
// selections derived from fuzzer bytes.
func FuzzGatherScatter(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1}, []byte{0, 2})
	f.Fuzz(func(t *testing.T, data, sel []byte) {
		if len(data) == 0 {
			return
		}
		v := bytesToVec(data)
		// Build a duplicate-free index list from sel.
		seen := map[int]bool{}
		var idx []int
		for _, s := range sel {
			i := int(s) % len(data)
			if !seen[i] {
				seen[i] = true
				idx = append(idx, i)
			}
		}
		g := v.Gather(idx)
		w := New(len(data))
		w.Scatter(idx, g)
		for j, i := range idx {
			if w.Get(i) != g.Get(j) || g.Get(j) != v.Get(i) {
				t.Fatal("gather/scatter mismatch")
			}
		}
	})
}
